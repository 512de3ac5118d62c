"""The four benchmark workloads and their correctness oracles.

Each workload builds its inputs from the seed alone, sets the program up
through its public API, and then runs *ops*: one op is the unit the
timed loop repeats (one YOLO image, one eBNN batch, one set-wide assembly
launch, one whole serving run).  An op returns an :class:`OpResult`: how
many items it completed, how many of them disagreed with the oracle, and
the simulated statistics it produced.

Oracles run outside timing, once per payload:

* eBNN predictions must equal :class:`repro.baselines.cpu.CpuBaseline`;
* YOLO outputs must be bit-equal to a host-only forward whose ``conv_fn``
  repeats the runner's steps (quantize, widen the divisor, ``gemm_fast``,
  dequantize) without any DPU;
* the assembly binary convolution must equal
  :func:`repro.nn.binary.binary_conv2d`.

Simulated time is cross-checked against the closed-form estimators
(``yolo_network_timing``, ``ebnn_dpu_cycles``); a difference raises
:class:`SimMismatch` and fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.cpu import CpuBaseline
from repro.core.mapping_ebnn import (
    IMAGES_PER_DPU,
    EbnnPimRunner,
    ebnn_dpu_cycles,
)
from repro.core.mapping_yolo import YoloPimRunner, yolo_network_timing
from repro.datasets.images import generate_scene
from repro.datasets.mnist import generate_batch
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import DpuImage
from repro.dpu.samples import OUTPUT_BASE, binary_conv_program
from repro.host.runtime import DpuSystem
from repro.nn.binary import binary_conv2d
from repro.nn.gemm import gemm_fast
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel
from repro.nn.quantize import QuantParams
from repro.serve import (
    BatchPolicy,
    DpuPool,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    YoloBackend,
    default_payloads,
)

#: Simulated-latency limits per request class for ``slo_attainment``.
#: Fixed once: twice each class's latency when served alone on an idle
#: 4-DPU pool (eBNN 40.0 ms, YOLO 60.3 ms) when the benchmark was written.
SLO_LIMIT_S = {"ebnn": 0.0800, "yolo": 0.1207}


@dataclass
class OpResult:
    """What one op did: items, oracle mismatches, simulated statistics."""

    items: int
    failed: int
    sim: dict = field(default_factory=dict)


def _same_outputs(got, want) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want)
    )


def yolo_reference(model: Yolov3Model, image: np.ndarray, alpha: int = 1):
    """Host-only forward repeating ``YoloPimRunner._pim_gemm`` step by step."""

    def conv_fn(plan, a, b):
        a_params = QuantParams.from_tensor(a, bits=8)
        b_params = QuantParams.from_tensor(b, bits=8)
        a_q = a_params.quantize(a).astype(np.int16)
        b_q = b_params.quantize(b).astype(np.int16)
        bound = int(np.abs(a_q.astype(np.int64)).sum(axis=1).max()) * int(
            np.abs(b_q).max() or 1
        )
        divisor = 32
        while bound * alpha // divisor > 32767:
            divisor *= 2
        c = gemm_fast(alpha, a_q, b_q, divisor=divisor).astype(np.int32)
        scale = a_params.scale * b_params.scale * divisor / alpha
        return c.astype(np.float32) * np.float32(scale)

    return model.forward(np.asarray(image, dtype=np.float32), conv_fn=conv_fn)


class Workload:
    """Set up once, then repeat ``prepare`` → ``run`` (timed) → ``check``."""

    name = ""
    #: What one item is, for ``items_per_s``.
    item = ""
    #: The set size whose launches decide the parallel engine's fan-out.
    set_dpus = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def build_oracles(self) -> None:
        raise NotImplementedError

    def prepare(self):
        """Untimed: the input of the next op."""
        return None

    def run(self, prepared):
        """Timed: one op through the program's public API."""
        raise NotImplementedError

    def check(self, prepared, output) -> OpResult:
        """Untimed: oracle comparison and simulated statistics."""
        raise NotImplementedError

    def warm_input(self):
        """The input of the untimed warm-up op."""
        return self.prepare()

    def close(self) -> None:
        pass


class YoloOffline(Workload):
    """Single 64x64 YOLOv3 images through ``YoloPimRunner`` on 64 DPUs."""

    name = "yolo_offline"
    item = "image"
    set_dpus = 64
    N_SCENES = 4

    def setup(self) -> None:
        self.model = Yolov3Model(64, width_scale=0.05)
        self.system = DpuSystem(UPMEM_ATTRIBUTES.scaled(self.set_dpus))
        self.runner = YoloPimRunner(self.system, self.model)
        self.scenes = [
            generate_scene(64, seed=self.seed * 1000 + i)
            for i in range(self.N_SCENES)
        ]
        self._next = 0
        self.expected = None
        closed = yolo_network_timing(
            self.model, attributes=self.system.attributes
        )
        self.closed_cycles = [layer.cycles for layer in closed.layers]

    def build_oracles(self) -> None:
        self.expected = [yolo_reference(self.model, s) for s in self.scenes]

    def prepare(self) -> int:
        index = self._next % self.N_SCENES
        self._next += 1
        return index

    def run(self, index: int):
        return self.runner.run(self.scenes[index])

    def check(self, index: int, outputs) -> OpResult:
        layers = self.runner.timing().layers
        cycles = [layer.cycles for layer in layers]
        if cycles != self.closed_cycles:
            raise SimMismatch(
                "YOLO layer cycles differ from yolo_network_timing"
            )
        failed = 0
        if self.expected is not None:
            failed = int(not _same_outputs(outputs, self.expected[index]))
        seconds = self.system.attributes.cycles_to_seconds(sum(cycles))
        return OpResult(1, failed, {
            "sim_seconds": seconds,
            "layer_cycles": cycles,
            "latencies": {"yolo": [seconds]},
        })


class EbnnOffline(Workload):
    """A 2048-image batch through ``EbnnPimRunner`` on 32 DPUs (4 waves).

    Ops alternate between two batches, so a result left in MRAM by the
    previous op cannot pass for this op's.
    """

    name = "ebnn_offline"
    item = "image"
    set_dpus = 32
    N_IMAGES = 2048

    def setup(self) -> None:
        self.model = EbnnModel()
        self.system = DpuSystem(UPMEM_ATTRIBUTES.scaled(self.set_dpus))
        self.runner = EbnnPimRunner(self.system, self.model)
        self.batches = [
            generate_batch(self.N_IMAGES, seed=2 * self.seed + i).normalized()
            for i in range(2)
        ]
        self._next = 0
        self.waves = -(-self.N_IMAGES // (self.set_dpus * IMAGES_PER_DPU))
        # Every wave is full, so each costs one closed-form 16-image batch.
        self.closed_cycles = self.waves * ebnn_dpu_cycles(self.model.config)
        self.expected = None

    def build_oracles(self) -> None:
        cpu = CpuBaseline(self.model)
        self.expected = [cpu.predict_batch(batch) for batch in self.batches]

    def prepare(self) -> int:
        self._next += 1
        return self._next % 2

    def run(self, index: int):
        return self.runner.run(self.batches[index])

    def check(self, index: int, result) -> OpResult:
        if result.dpu_report.cycles != self.closed_cycles:
            raise SimMismatch(
                f"eBNN report cycles {result.dpu_report.cycles} != "
                f"ebnn_dpu_cycles x waves {self.closed_cycles}"
            )
        failed = 0
        if self.expected is not None:
            failed = int(np.count_nonzero(
                result.predictions != self.expected[index]
            ))
        # Every image arrives with the batch and completes when its wave's
        # launch and host classification are done.
        per_wave_s = result.total_seconds / self.waves
        wave = self.set_dpus * IMAGES_PER_DPU
        latencies = [
            per_wave_s * (1 + i // wave) for i in range(self.N_IMAGES)
        ]
        return OpResult(self.N_IMAGES, failed, {
            "sim_seconds": result.total_seconds,
            "dpu_cycles": result.dpu_report.cycles,
            "latencies": {"ebnn": latencies},
        })


class DpuAsm(Workload):
    """The assembly binary convolution, set-wide on 16 DPUs x 16 tasklets.

    The image is 9x9, the largest size at which ``binary_conv_program``
    is correct with several filters: its output addressing multiplies the
    filter index by ``4 * (size - 2) ** 2`` with ``mul8``, an 8x8-bit
    multiply, so from size 10 on every filter but the first writes to
    the wrong place and the oracle check fails.
    """

    name = "dpu_asm"
    item = "DPU program run"
    set_dpus = 16
    IMAGE_SIZE = 9
    N_FILTERS = 16

    def setup(self) -> None:
        size, filters = self.IMAGE_SIZE, self.N_FILTERS
        program = binary_conv_program(size, filters)
        self.system = DpuSystem(UPMEM_ATTRIBUTES.scaled(self.set_dpus))
        self.dpu_set = self.system.allocate(self.set_dpus)
        self.dpu_set.load(DpuImage(name="binary_conv", program=program.program))
        rng = np.random.default_rng(self.seed)
        self.images = rng.integers(0, 2, size=(self.set_dpus, size, size))
        self.weights = rng.integers(0, 2, size=(self.set_dpus, filters, 3, 3))
        self.out_side = size - 2
        self.expected = None

    def build_oracles(self) -> None:
        self.expected = [
            binary_conv2d(
                np.where(image > 0, 1, -1).astype(np.int8),
                np.where(weights > 0, 1, -1).astype(np.int8),
                padding=0,
            )
            for image, weights in zip(self.images, self.weights)
        ]

    def run(self, prepared):
        size = self.IMAGE_SIZE
        # The program works out of WRAM; stage each DPU's inputs there and
        # zero its outputs (never a valid 3x3 correlation, which is odd),
        # so a stale result cannot pass the check.
        cleared = np.zeros(self.N_FILTERS * self.out_side**2, dtype=np.int32)
        for dpu, image, weights in zip(self.dpu_set, self.images, self.weights):
            dpu.wram.write_array(0, image.reshape(-1).astype(np.int32))
            dpu.wram.write_array(
                4 * size * size, weights.reshape(-1).astype(np.int32)
            )
            dpu.wram.write_array(OUTPUT_BASE, cleared)
        return self.dpu_set.launch(n_tasklets=self.N_FILTERS)

    def check(self, prepared, report) -> OpResult:
        failed = 0
        count = self.N_FILTERS * self.out_side**2
        for d, dpu in enumerate(self.dpu_set):
            out = dpu.wram.read_array(OUTPUT_BASE, np.int32, count).reshape(
                self.N_FILTERS, self.out_side, self.out_side
            )
            if self.expected is not None:
                failed += int(not np.array_equal(out, self.expected[d]))
        instructions = sum(
            dpu.last_result.instructions_retired for dpu in self.dpu_set
        )
        return OpResult(self.set_dpus, failed, {
            "sim_seconds": report.seconds,
            "dpu_cycles": report.cycles,
            "per_dpu_cycles": list(report.per_dpu_cycles),
            "instructions": instructions,
            "latencies": {"asm": [report.seconds] * self.set_dpus},
        })

    def close(self) -> None:
        self.system.free(self.dpu_set)


class ServeMixed(Workload):
    """An open loop of seeded Poisson arrivals, mostly eBNN, 2% YOLO.

    Arrivals are pre-generated in simulated time, so the generator is
    never late.  The class mix is stratified (every 50th request is
    YOLO) so every seed offers the same work: 1176 eBNN and 24 YOLO
    requests at 120 requests per simulated second.  YOLO batches hold at
    most 4 requests (the default policy otherwise): a starved YOLO queue
    flushed 16 at a time would block eBNN for ~1 s and overflow its
    64-request queue, and this workload is meant to reject nothing.
    """

    name = "serve_mixed"
    item = "offered request"
    set_dpus = 4
    RPS = 120.0
    N_REQUESTS = 1200
    YOLO_EVERY = 50
    POLICIES = {"yolo": BatchPolicy(max_batch=4)}

    def setup(self) -> None:
        self.system = DpuSystem(UPMEM_ATTRIBUTES.scaled(2 * self.set_dpus))
        self.ebnn = EbnnBackend()
        self.yolo = YoloBackend()
        self.pool = DpuPool(
            self.system, [self.ebnn, self.yolo], dpus_per_model=self.set_dpus
        )
        self.payloads = default_payloads(seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.arrivals = np.cumsum(rng.exponential(1.0 / self.RPS, self.N_REQUESTS))
        self.models = [
            "yolo" if i % self.YOLO_EVERY == self.YOLO_EVERY // 2 else "ebnn"
            for i in range(self.N_REQUESTS)
        ]
        self.expected = None

    def prepare(self) -> list[InferenceRequest]:
        """A fresh copy of the schedule (the server mutates requests)."""
        sequence = {"ebnn": 0, "yolo": 0}
        out = []
        for i, (t, model) in enumerate(zip(self.arrivals, self.models)):
            out.append(InferenceRequest(
                request_id=i,
                model=model,
                payload=self.payloads[model](sequence[model]),
                arrival_s=float(t),
            ))
            sequence[model] += 1
        return out

    def build_oracles(self) -> None:
        requests = self.prepare()
        cpu = CpuBaseline(self.ebnn.model)
        cache: dict[tuple[str, int], object] = {}
        self.expected = {}
        for r in requests:
            key = (r.model, id(r.payload))
            if key not in cache:
                if r.model == "ebnn":
                    cache[key] = int(cpu.predict_batch(r.payload[None])[0])
                else:
                    cache[key] = yolo_reference(self.yolo.model, r.payload)
            self.expected[r.request_id] = cache[key]

    def warm_input(self) -> list[InferenceRequest]:
        """A tiny schedule touching both classes, for the warm-up op."""
        return [
            InferenceRequest(0, "ebnn", self.payloads["ebnn"](0), 0.0),
            InferenceRequest(1, "yolo", self.payloads["yolo"](0), 0.0),
        ]

    def run(self, requests: list[InferenceRequest]):
        server = InferenceServer(self.pool, policies=self.POLICIES)
        return server.run(requests)

    def check(self, requests, result) -> OpResult:
        # A rejection is the server's backpressure, not a wrong answer: it
        # counts against slo_attainment, while a wrong output also fails.
        by_id = {r.request_id: r for r in result.responses}
        failed = met = 0
        for request in requests:
            response = by_id.get(request.request_id)
            if response is None:
                failed += 1  # every request must end in one response
                continue
            if not response.ok:
                continue
            if self.expected is not None:
                want = self.expected[request.request_id]
                right = (
                    response.output == want if request.model == "ebnn"
                    else _same_outputs(response.output, want)
                )
                if not right:
                    failed += 1
                    continue
            met += int(response.latency_s <= SLO_LIMIT_S[request.model])
        last_arrival = max(r.arrival_s for r in requests)
        return OpResult(len(requests), failed, {
            "latencies": {
                m: result.latencies(m) for m in ("ebnn", "yolo")
            },
            "completed_s": [r.completed_s for r in result.responses],
            "rejected": len(result.rejected),
            "slo_met": met,
            "backlog_s": result.finished_s - last_arrival,
        })

    def close(self) -> None:
        self.pool.shutdown()


class SimMismatch(Exception):
    """Simulated time disagrees with the closed-form estimator."""


WORKLOADS = {
    cls.name: cls for cls in (YoloOffline, EbnnOffline, ServeMixed, DpuAsm)
}
