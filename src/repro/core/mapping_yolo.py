"""The YOLOv3 mapping scheme: one GEMM row per DPU (Section 4.2).

Scheme summary (Section 4.2.3, Fig. 4.6):

* Each convolutional layer is an Algorithm 2 GEMM, ``C(MxN) = A(MxK) x
  B(KxN)``.  The outer (filter) loop is unrolled across DPUs: DPU ``i``
  receives row ``i`` of the weights ``A``, the **entire** input matrix
  ``B``, and produces row ``i`` of ``C`` — so a layer occupies ``M`` DPUs.
* Inside a DPU, the inner (column) loop is split across tasklets: tasklet
  ``t`` owns columns ``t, t + T, t + 2T, ...`` (dependences in the middle
  loop force the parallelization to the innermost loop).
* The ``ctmp`` accumulator is ``4N`` bytes.  For real YOLOv3 layers this
  exceeds WRAM once stacks are reserved (the 160 KB buffer Section 4.3.4
  laments), so accumulator traffic goes to MRAM through the DMA — the
  reason the paper's YOLOv3 numbers are MRAM-bound.

Like the eBNN mapping, one cost recipe (:func:`charge_gemm_row_costs`)
backs both the functional kernel and the closed-form layer/network
estimators used by the Fig. 4.7 sweeps, and one executor
(:class:`YoloExecutor`) runs the GEMMs for both the offline
:class:`YoloPimRunner` and the serving ``YoloBackend``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.costs import Operation, OptLevel, Precision, mram_access_cycles
from repro.dpu.device import Dpu, DpuImage
from repro.dpu.kernel import GLOBAL_KERNELS, KernelContext, KernelResult
from repro.dpu.memory import Mram, Wram
from repro.errors import DegradedLaunchError, DpuMemoryError, MappingError
from repro.host.alignment import align_up
from repro.host.runtime import DpuSet, DpuSystem, LaunchReport
from repro.host.transfer import scatter_rows
from repro.nn.gemm import GemmShape, gemm_fast, gemm_row
from repro.nn.models.darknet import Yolov3Model
from repro.nn.quantize import QuantParams

#: Tasklets the paper identifies as the saturation point for YOLOv3.
YOLO_TASKLETS = 11

#: WRAM usable for the ctmp accumulator after tasklet stacks are reserved:
#: 11 tasklets at the ~5.2 KB stacks the quantized YOLOv3 build needs leave
#: well under 8 KB of WRAM (the Section 4.3.4 complaint).
CTMP_WRAM_BUDGET_BYTES = 8 * 1024

#: Plain instructions per MAC besides the multiply: accumulator add,
#: B-element load, and loop/induction overhead.
_MAC_EXTRA_INSTR = 4

#: Plain instructions per output element in the rescale pass (clamp + store).
_OUTPUT_EXTRA_INSTR = 3

#: Wrapper instructions around the three mram_read/mram_write library calls
#: an MRAM-resident inner iteration performs (optimized code).
_MRAM_CALL_INSTR_PER_MAC = 12


class AccumulatorPolicy(enum.Enum):
    """Where the ctmp accumulator lives during the inner loop."""

    #: ctmp fits WRAM (small N); accumulator access is single-cycle.
    WRAM = "wram"
    #: ctmp resides in MRAM; every accumulate is a DMA read-modify-write,
    #: the regime the paper's full-size YOLOv3 ran in (Section 4.3.3).
    MRAM = "mram"

    @staticmethod
    def for_shape(
        shape: GemmShape, budget_bytes: int | None = None
    ) -> "AccumulatorPolicy":
        budget = CTMP_WRAM_BUDGET_BYTES if budget_bytes is None else budget_bytes
        if 4 * shape.n <= budget:
            return AccumulatorPolicy.WRAM
        return AccumulatorPolicy.MRAM


def charge_gemm_row_costs(
    ctx: KernelContext,
    shape: GemmShape,
    *,
    policy: AccumulatorPolicy | None = None,
) -> None:
    """Charge one DPU's share of a layer GEMM: one row of A against all of B.

    Work: ``K*N`` MACs plus the N-element rescale pass of Algorithm 2.
    MRAM traffic: the A row and all of B stream in; the C row streams out;
    under the MRAM accumulator policy every MAC additionally pays an
    8-byte-aligned DMA read and write of ``ctmp[j]``.
    """
    policy = policy or AccumulatorPolicy.for_shape(shape)
    macs = shape.k * shape.n

    # Input/output edge traffic (int16 elements).
    ctx.charge_streamed_dma(2 * shape.k)            # the A row
    ctx.charge_streamed_dma(2 * shape.n)            # the C row out

    # Inner loop: APART * B[k*N + j] + ctmp[j].
    ctx.charge_op(Operation.MUL, Precision.FIXED_16, macs)
    ctx.charge_op(Operation.ADD, Precision.FIXED_32, macs)
    ctx.charge_instructions(_MAC_EXTRA_INSTR * macs)
    if ctx.opt_level is OptLevel.O0:
        # Unoptimized array indexing multiplies per element access.
        ctx.charge_call("__mulsi3", macs)

    if policy is AccumulatorPolicy.MRAM:
        # The regime the paper's full-size layers ran in (Section 4.3.3):
        # tasklet stacks consume WRAM, so B is fetched element-wise and
        # ctmp[j] is read-modify-written through the DMA, one 8-byte beat
        # per access, plus the mram_read/mram_write wrapper instructions.
        beat = mram_access_cycles(8)
        ctx.charge_dma_cycles(3 * beat * macs, 24 * macs)
        ctx.charge_instructions(_MRAM_CALL_INSTR_PER_MAC * macs)
    else:
        # B streams through a WRAM staging buffer; ctmp stays in WRAM.
        ctx.charge_streamed_dma(2 * shape.k * shape.n)
        ctx.charge_wram_access(2 * macs)

    # Output pass: ctmp[j] / 32, clamp, store (Algorithm 2 lines 8-10).
    ctx.charge_op(Operation.DIV, Precision.FIXED_32, shape.n)
    ctx.charge_instructions(_OUTPUT_EXTRA_INSTR * shape.n)


@dataclass(frozen=True)
class YoloDpuLayout:
    """MRAM symbol layout for one GEMM-row DPU."""

    shape: GemmShape

    @property
    def a_row_bytes(self) -> int:
        return align_up(2 * self.shape.k)

    @property
    def b_bytes(self) -> int:
        return align_up(2 * self.shape.k * self.shape.n)

    @property
    def c_row_bytes(self) -> int:
        return align_up(4 * self.shape.n)

    def build_image(self, name: str = "yolo_gemm") -> DpuImage:
        return DpuImage.from_symbol_layout(
            name,
            kernel_name="yolo_gemm_row",
            layout=[
                ("a_row", self.a_row_bytes),
                ("b", self.b_bytes),
                ("c_row", self.c_row_bytes),
                ("meta", 24),  # actual M, N, K, ALPHA, divisor, pad
            ],
        )


@GLOBAL_KERNELS.register("yolo_gemm_row")
def yolo_gemm_row_kernel(ctx: KernelContext, *, layout: YoloDpuLayout) -> None:
    """One DPU's GEMM row (functional + cycle-charged).

    The metadata carries the actual dimensions plus the accumulator
    divisor — 32 in Algorithm 2, widened by the host for layers whose
    quantization would otherwise clamp (the padded-size side-channel
    protocol of Section 3.2 applied to scaling metadata).
    """
    shape = layout.shape
    meta = ctx.read_symbol_array("meta", np.int32, 6)
    n, k, alpha, divisor = (int(meta[i]) for i in range(1, 5))
    if (n, k) != (shape.n, shape.k):
        raise MappingError(
            f"metadata GEMM shape ({n}, {k}) != layout ({shape.n}, {shape.k})"
        )
    a_row = ctx.read_symbol_array("a_row", np.int16, k)
    b = ctx.read_symbol_array("b", np.int16, k * n).reshape(k, n)
    c_row = gemm_row(alpha, a_row, b, divisor=divisor or 32)
    ctx.write_symbol_array("c_row", c_row.astype(np.int32))
    charge_gemm_row_costs(ctx, shape)


@GLOBAL_KERNELS.register_set_form("yolo_gemm_row")
def yolo_gemm_row_set(
    dpus: list[Dpu],
    *,
    n_tasklets: int,
    opt_level: OptLevel,
    layout: YoloDpuLayout,
):
    """:func:`yolo_gemm_row_kernel` on every DPU of a launch at once.

    Reads each DPU's own metadata, A row and B, and declines (``None``)
    if any DPU would fail.  Otherwise returns the run: DPUs whose metadata
    and B agree byte for byte share one :func:`gemm_fast` over their
    stacked A rows, and each writes its own C row.  Each B is compared
    with its group's as it is read, so one copy per group stays alive.
    The costs depend only on the shape, so they are charged once.
    """
    shape = layout.shape
    n, k = shape.n, shape.k
    symbols = dpus[0].image.symbols
    if any(name not in symbols for name in ("meta", "a_row", "b", "c_row")):
        return None
    meta_addr = symbols["meta"].mram_addr
    a_addr = symbols["a_row"].mram_addr
    b_addr = symbols["b"].mram_addr
    c_addr = symbols["c_row"].mram_addr
    # DPUs with byte-equal metadata and B share a group: (metadata, B,
    # alpha, divisor, member DPUs, their A rows).
    groups: list[tuple[bytes, bytes, int, int, list[Dpu], list[bytes]]] = []
    try:
        for dpu in dpus:
            mram = dpu.mram
            if c_addr + 4 * n > mram.size:
                return None
            meta = mram.read(meta_addr, 24)
            b = mram.read(b_addr, 2 * k * n)
            for group in groups:
                if group[0] == meta and group[1] == b:
                    break
            else:
                _, meta_n, meta_k, alpha, divisor, _ = (
                    int(v) for v in np.frombuffer(meta, dtype=np.int32)
                )
                divisor = divisor or 32
                if (meta_n, meta_k) != (n, k) or divisor < 0:
                    return None
                group = (meta, b, alpha, divisor, [], [])
                groups.append(group)
            group[4].append(dpu)
            group[5].append(mram.read(a_addr, 2 * k))
    except DpuMemoryError:
        return None
    row_bytes = 4 * n

    def run() -> list[KernelResult]:
        ctx = KernelContext(
            Mram(), Wram(), n_tasklets=n_tasklets, opt_level=opt_level
        )
        charge_gemm_row_costs(ctx, shape)
        result = ctx.result()
        for _, b, alpha, divisor, members, a_rows in groups:
            a = np.frombuffer(b"".join(a_rows), dtype=np.int16).reshape(-1, k)
            b_matrix = np.frombuffer(b, dtype=np.int16).reshape(k, n)
            c = gemm_fast(alpha, a, b_matrix, divisor=divisor)
            c_bytes = memoryview(c).cast("B")
            for row, dpu in enumerate(members):
                start = row * row_bytes
                dpu.mram.write(c_addr, c_bytes[start : start + row_bytes])
        return [result.copy() for _ in dpus]

    return run


def gemm_layer_cycles(
    shape: GemmShape,
    *,
    n_tasklets: int = YOLO_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    policy: AccumulatorPolicy | None = None,
    ctmp_budget_bytes: int | None = None,
) -> float:
    """Closed-form DPU cycles for one layer (all row-DPUs run in parallel)."""
    if policy is None:
        policy = AccumulatorPolicy.for_shape(shape, ctmp_budget_bytes)
    ctx = KernelContext(Mram(), Wram(), n_tasklets=n_tasklets, opt_level=opt_level)
    charge_gemm_row_costs(ctx, shape, policy=policy)
    return ctx.elapsed_cycles()


@dataclass
class YoloLayerTiming:
    """Timing of one convolutional layer under the mapping."""

    layer_index: int
    shape: GemmShape
    n_dpus: int
    cycles: float
    seconds: float
    policy: AccumulatorPolicy


@dataclass
class YoloNetworkTiming:
    """Per-layer and total single-image latency of the mapped network."""

    layers: list[YoloLayerTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(layer.seconds for layer in self.layers)

    @property
    def mean_layer_seconds(self) -> float:
        return self.total_seconds / len(self.layers) if self.layers else 0.0

    @property
    def max_layer_seconds(self) -> float:
        return max((layer.seconds for layer in self.layers), default=0.0)

    @property
    def total_dpu_demand(self) -> int:
        return max((layer.n_dpus for layer in self.layers), default=0)


def yolo_network_timing(
    model: Yolov3Model,
    *,
    attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
    n_tasklets: int = YOLO_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    policy: AccumulatorPolicy | None = None,
    ctmp_budget_bytes: int | None = None,
) -> YoloNetworkTiming:
    """Single-image latency estimate for the whole network (Section 4.3.1).

    Layers execute one after another (the host must gather each layer's
    output to build the next layer's B); within a layer all M row-DPUs run
    in parallel, so layer time is one DPU's time.  A layer wider than the
    system executes in waves of ``n_dpus`` rows.  ``ctmp_budget_bytes``
    explores the Section 4.3.4 what-if of a larger WRAM.
    """
    timing = YoloNetworkTiming()
    for plan in model.plans:
        shape = plan.gemm
        layer_policy = policy or AccumulatorPolicy.for_shape(
            shape, ctmp_budget_bytes
        )
        waves = -(-shape.m // attributes.n_dpus)
        cycles = waves * gemm_layer_cycles(
            shape,
            n_tasklets=n_tasklets,
            opt_level=opt_level,
            policy=layer_policy,
        )
        timing.layers.append(
            YoloLayerTiming(
                layer_index=plan.layer_index,
                shape=shape,
                n_dpus=min(shape.m, attributes.n_dpus),
                cycles=cycles,
                seconds=attributes.cycles_to_seconds(cycles),
                policy=layer_policy,
            )
        )
    return timing


class YoloExecutor:
    """The Fig. 4.6 GEMM-row path, shared by offline and serving.

    Quantizes each layer's weights once, widens the accumulator divisor,
    stages each layer once on the first ``min(M, len(members))`` DPUs
    (one program load, one broadcast of B and of the metadata), then
    runs the rows in waves: scatter A rows, launch, gather C rows.
    """

    def __init__(
        self,
        model: Yolov3Model,
        *,
        n_tasklets: int = YOLO_TASKLETS,
        opt_level: OptLevel = OptLevel.O3,
        alpha: int = 1,
    ) -> None:
        self.model = model
        self.n_tasklets = n_tasklets
        self.opt_level = opt_level
        self.alpha = alpha
        self._weights: dict[int, tuple[np.ndarray, QuantParams]] = {}
        self._images: dict[int, DpuImage] = {}

    def warm(self) -> None:
        """Quantize every layer's weights now, in forward()'s RNG order.

        The model's lazy weights draw from one sequential RNG, so they
        materialize in forward()'s access order (weights, then that
        layer's BN): a warmed model equals a fresh model that simply ran
        forward.
        """
        for plan in self.model.plans:
            self._quantized_weights(
                plan,
                self.model.conv_weights(plan).reshape(plan.gemm.m, plan.gemm.k),
            )
            if plan.spec.batch_normalize:
                self.model.conv_bn(plan)

    def _quantized_weights(self, plan, a: np.ndarray):
        cached = self._weights.get(plan.layer_index)
        if cached is None:
            params = QuantParams.from_tensor(a, bits=8)
            cached = (params.quantize(a).astype(np.int16), params)
            self._weights[plan.layer_index] = cached
        return cached

    def forward(self, image, members, attributes, fault_policy=None):
        """One image end to end on ``members``: (outputs, wave reports).

        A degraded wave raises :class:`DegradedLaunchError` whose
        ``reports`` cover every wave launched for the image.
        """
        reports = []

        def conv_fn(plan, a, b):
            try:
                c, layer = self.gemm(plan, a, b, members, attributes, fault_policy)
            except DegradedLaunchError as failure:
                failure.reports[:0] = reports
                raise
            reports.extend(layer)
            return c

        outputs = self.model.forward(
            np.asarray(image, dtype=np.float32), conv_fn=conv_fn
        )
        return outputs, reports

    def gemm(self, plan, a, b, members, attributes, fault_policy=None):
        """One layer's ``C = A x B`` on ``members``: (C, wave reports).

        A wave that ends degraded raises :class:`DegradedLaunchError`
        naming its failed DPUs and carrying the layer's reports so far.
        """
        shape = plan.gemm
        a_q, a_params = self._quantized_weights(plan, a)
        b_params = QuantParams.from_tensor(b, bits=8)
        b_q = b_params.quantize(b).astype(np.int16)

        # Algorithm 2 divides the accumulator by 32 before the int16 clamp;
        # the thesis's quantized network has calibrated scales that make 32
        # sufficient.  With ad-hoc per-layer quantization we widen the
        # divisor until the worst-case accumulator fits, which plays the
        # same calibration role.
        bound = int(np.abs(a_q.astype(np.int64)).sum(axis=1).max()) * int(
            np.abs(b_q).max() or 1
        )
        divisor = 32
        while bound * self.alpha // divisor > 32767:
            divisor *= 2

        layout = YoloDpuLayout(shape)
        image = self._images.setdefault(
            plan.layer_index,
            layout.build_image(f"yolo_layer_{plan.layer_index}"),
        )
        n_dpus = min(shape.m, len(members))
        staged = DpuSet(list(members[:n_dpus]), attributes)
        staged.load(image)
        staged.broadcast(
            "b", np.ascontiguousarray(b_q.reshape(-1), dtype=np.int16)
        )
        staged.broadcast(
            "meta",
            np.array(
                [shape.m, shape.n, shape.k, self.alpha, divisor, 0],
                dtype=np.int32,
            ),
        )
        c_rows = np.zeros((shape.m, shape.n), dtype=np.int32)
        reports: list[LaunchReport] = []
        for start in range(0, shape.m, n_dpus):
            rows = range(start, min(start + n_dpus, shape.m))
            wave = DpuSet(staged.dpus[: len(rows)], attributes)
            wave.image = image
            scatter_rows(
                wave.dpus,
                "a_row",
                [np.ascontiguousarray(a_q[r], dtype=np.int16) for r in rows],
            )
            try:
                report = wave.launch(
                    n_tasklets=self.n_tasklets,
                    opt_level=self.opt_level,
                    fault_policy=fault_policy,
                    layout=layout,
                )
            except DegradedLaunchError as failure:  # every DPU failed
                failure.reports[:0] = reports
                raise
            reports.append(report)
            if report.degraded:
                failed = sorted(o.dpu_id for o in report.failed)
                raise DegradedLaunchError(
                    f"layer {plan.layer_index}: wave at row {start} lost "
                    f"DPUs {failed}",
                    failed,
                    reports,
                )
            for dpu, row_index in zip(wave, rows):
                c_rows[row_index] = dpu.read_symbol_array(
                    "c_row", np.int32, shape.n
                )

        # Host-side dequantization: undo quantization scales and divisor.
        scale = a_params.scale * b_params.scale * divisor / self.alpha
        return c_rows.astype(np.float32) * np.float32(scale), reports


class YoloPimRunner:
    """Functional end-to-end YOLOv3 inference through the PIM system.

    Intended for reduced-scale networks (tests/examples): each conv
    layer's GEMM runs through :class:`YoloExecutor` (whose keyword
    options ``n_tasklets``, ``opt_level`` and ``alpha`` the runner takes)
    on a freshly allocated set, and the host applies BN and activation.
    """

    def __init__(self, system: DpuSystem, model: Yolov3Model, **options) -> None:
        self.system = system
        self.model = model
        self.executor = YoloExecutor(model, **options)
        self.layer_reports: list[YoloLayerTiming] = []

    def run(self, image: np.ndarray) -> list[np.ndarray]:
        """Forward the image; returns the YOLO head outputs."""
        self.layer_reports = []
        return self.model.forward(image, conv_fn=self._pim_gemm)

    def timing(self) -> YoloNetworkTiming:
        return YoloNetworkTiming(layers=list(self.layer_reports))

    def _pim_gemm(self, plan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        shape = plan.gemm
        attributes = self.system.attributes
        n_dpus = min(shape.m, self.system.n_dpus)
        with telemetry.span(
            "yolo.layer",
            category="pipeline",
            layer=plan.layer_index,
            m=shape.m,
            n=shape.n,
            k=shape.k,
            n_dpus=n_dpus,
        ) as layer_span:
            dpu_set = self.system.allocate(n_dpus)
            try:
                c, reports = self.executor.gemm(
                    plan, a, b, dpu_set.dpus, attributes
                )
            finally:
                self.system.free(dpu_set)
            cycles = 0.0
            for report in reports:
                cycles += report.cycles
            timing = YoloLayerTiming(
                layer_index=plan.layer_index,
                shape=shape,
                n_dpus=n_dpus,
                cycles=cycles,
                seconds=attributes.cycles_to_seconds(cycles),
                policy=AccumulatorPolicy.for_shape(shape),
            )
            self.layer_reports.append(timing)
            layer_span.set(
                cycles=cycles, seconds=timing.seconds, policy=timing.policy.value
            )
        return c
