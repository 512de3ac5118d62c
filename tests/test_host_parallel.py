"""Tests for repro.host.parallel (the parallel launch engine).

The engine's contract is bit-identical results: a parallel launch must
leave the parent-side DPUs — memories, DMA counters, ``last_result`` —
and the global metrics registry in exactly the state serial execution
produces.  These tests compare ``workers=1`` against multi-worker runs
instruction-for-instruction.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import DpuImage
from repro.errors import LaunchError
from repro.host import parallel
from repro.host.runtime import DpuSystem

SMALL = UPMEM_ATTRIBUTES.scaled(16)

MIX_SOURCE = """
        li   r1, 0
        li   r2, 0              # mram addr of 'seed'
        ldma r1, r2, 8
        lw   r5, r0, 0
        li   r2, 40
    loop:
        addi r3, r3, 7
        xor  r5, r5, r3
        addi r2, r2, -1
        bne  r2, r0, loop
        sw   r5, r0, 8
        li   r1, 8
        li   r2, 8              # mram addr of 'digest'
        sdma r1, r2, 8
        halt
"""


def mix_image() -> DpuImage:
    return DpuImage.from_symbol_layout(
        "mix",
        program=assemble(MIX_SOURCE, name="mix"),
        layout=[("seed", 8), ("digest", 8)],
    )


def run_mix(n_dpus: int, workers: int):
    """Scatter distinct seeds, launch, gather; returns comparable state."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
    dpu_set = system.allocate(n_dpus)
    dpu_set.load(mix_image())
    seeds = [bytes([i + 1] * 8) for i in range(n_dpus)]
    dpu_set.scatter("seed", seeds)
    before = telemetry.GLOBAL_METRICS.snapshot()
    report = dpu_set.launch(workers=workers)
    delta = telemetry.GLOBAL_METRICS.delta_since(before)
    digests = dpu_set.gather("digest", 8)
    dma = [
        (d.dma.total_cycles, d.dma.total_bytes, d.dma.transfer_count)
        for d in dpu_set
    ]
    instrs = [d.last_result.instructions_retired for d in dpu_set]
    system.free(dpu_set)
    return report, delta, digests, dma, instrs


class TestWorkerResolution:
    def test_explicit_workers_win(self):
        assert parallel.resolve_workers(64, 4) == 4

    def test_explicit_workers_clamped_to_set_size(self):
        assert parallel.resolve_workers(3, 8) == 3

    def test_workers_one_is_serial(self):
        assert parallel.resolve_workers(1024, 1) == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(LaunchError):
            parallel.resolve_workers(8, 0)
        with pytest.raises(LaunchError):
            parallel.resolve_workers(0, 2)

    def test_small_sets_stay_serial_by_default(self):
        threshold = parallel.PARALLEL_MIN_DPUS
        with parallel.worker_scope(8):
            assert parallel.resolve_workers(threshold - 1) == 1
            assert parallel.resolve_workers(threshold) == min(8, threshold)
            assert parallel.resolve_workers(threshold + 64) == 8

    def test_env_variable_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with parallel.worker_scope(None):
            assert parallel.default_workers() == 3
            assert parallel.resolve_workers(1024) == 3

    def test_env_variable_validated(self, monkeypatch):
        with parallel.worker_scope(None):
            monkeypatch.setenv("REPRO_WORKERS", "zero")
            with pytest.raises(LaunchError):
                parallel.default_workers()
            monkeypatch.setenv("REPRO_WORKERS", "0")
            with pytest.raises(LaunchError):
                parallel.default_workers()

    def test_worker_scope_restores(self):
        before = parallel.default_workers()
        with parallel.worker_scope(7):
            assert parallel.default_workers() == 7
        assert parallel.default_workers() == before

    def test_set_default_workers_rejects_zero(self):
        with pytest.raises(LaunchError):
            parallel.set_default_workers(0)


class TestChunking:
    def test_even_split(self):
        assert parallel.chunk_indices(8, 4) == [
            range(0, 2), range(2, 4), range(4, 6), range(6, 8)
        ]

    def test_remainder_spreads_forward(self):
        chunks = parallel.chunk_indices(10, 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]
        assert chunks[0][0] == 0 and chunks[-1][-1] == 9

    def test_more_chunks_than_items(self):
        chunks = parallel.chunk_indices(3, 8)
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_invalid_rejected(self):
        with pytest.raises(LaunchError):
            parallel.chunk_indices(4, 0)


class TestMetricsDeltaProtocol:
    """snapshot/delta/merge must roundtrip every metric kind."""

    def test_counter_roundtrip(self):
        registry = telemetry.GLOBAL_METRICS
        counter = registry.counter("test.parallel.roundtrip", "test")
        before = registry.snapshot()
        counter.inc(5)
        counter.labels(kind="a").inc(2)
        delta = registry.delta_since(before)
        assert delta["test.parallel.roundtrip"]["state"] == 5
        counter.inc(1)  # parent-side activity after the snapshot
        value = counter.value
        registry.merge_delta(delta)
        assert counter.value == value + 5
        assert counter.labels(kind="a").value == 4

    def test_histogram_roundtrip(self):
        registry = telemetry.GLOBAL_METRICS
        histogram = registry.histogram(
            "test.parallel.hist", "test", buckets=(1.0, 10.0)
        )
        histogram.observe(0.5)
        before = registry.snapshot()
        histogram.observe(20.0)
        histogram.observe(0.1)
        delta = registry.delta_since(before)
        state = delta["test.parallel.hist"]["state"]
        assert state["count"] == 2
        registry.merge_delta(delta)
        assert histogram.count == 5
        assert histogram.min == 0.1
        assert histogram.max == 20.0

    def test_empty_delta_merge_keeps_min_max(self):
        registry = telemetry.GLOBAL_METRICS
        histogram = registry.histogram("test.parallel.hist2", "test")
        histogram.observe(3.0)
        before = registry.snapshot()
        delta = registry.delta_since(before)
        registry.merge_delta(delta)
        assert histogram.count == 1
        assert histogram.min == 3.0
        assert histogram.max == 3.0

    def test_merge_registers_unknown_metrics(self):
        registry = telemetry.GLOBAL_METRICS
        name = "test.parallel.fresh"
        counter = registry.counter(name, "test")
        before = registry.snapshot()
        counter.inc(3)
        delta = registry.delta_since(before)
        # A worker may observe metrics the parent has never created.
        registry.merge_delta({name: delta[name]})
        assert counter.value == 6


class TestDeterminism:
    """Parallel launches are bit-identical to serial execution."""

    def test_program_launch_matches_serial(self):
        serial = run_mix(8, workers=1)
        parallel_run = run_mix(8, workers=4)
        s_report, s_delta, s_digests, s_dma, s_instrs = serial
        p_report, p_delta, p_digests, p_dma, p_instrs = parallel_run
        assert p_report.cycles == s_report.cycles
        assert p_report.per_dpu_cycles == s_report.per_dpu_cycles
        assert p_digests == s_digests
        assert p_dma == s_dma
        assert p_instrs == s_instrs

    def test_metric_totals_match_serial(self):
        _, s_delta, *_ = run_mix(8, workers=1)
        _, p_delta, *_ = run_mix(8, workers=4)
        for name in (
            "dpu.execs", "dpu.instructions", "dpu.launches",
            "dma.transfers", "dma.bytes",
            "launch.cycles", "transfer.bytes",
        ):
            assert p_delta.get(name) == s_delta.get(name), name

    def test_memory_mutations_visible_in_parent(self):
        """Post-launch reads see worker-side WRAM and MRAM writes."""
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(8)
        dpu_set.load(mix_image())
        dpu_set.scatter("seed", [bytes([i + 1] * 8) for i in range(8)])
        dpu_set.launch(workers=4)
        for i, dpu in enumerate(dpu_set):
            expected_seed = bytes([i + 1] * 8)
            assert dpu.wram.read(0, 8) == expected_seed[:8]
            assert dpu.read_symbol("digest", 8) == dpu.wram.read(8, 8)
        system.free(dpu_set)

    def test_kernel_launch_matches_serial(self):
        """The kernel path (eBNN's mechanism) ships results and memory."""
        def run(workers):
            system = DpuSystem(SMALL)
            dpu_set = system.allocate(6)
            image = DpuImage.from_symbol_layout(
                "kern", kernel_name="test_double", layout=[("data", 64)]
            )
            dpu_set.load(image)
            rows = [
                np.arange(i, i + 16, dtype=np.int32) for i in range(6)
            ]
            dpu_set.scatter("data", rows)
            report = dpu_set.launch(workers=workers, count=16)
            out = dpu_set.gather("data", 64)
            system.free(dpu_set)
            return report, out

        s_report, s_out = run(1)
        p_report, p_out = run(3)
        assert p_report.per_dpu_cycles == s_report.per_dpu_cycles
        assert p_out == s_out
        assert p_out[2] == (np.arange(2, 18, dtype=np.int32) * 2).tobytes()

    def test_ebnn_pipeline_matches_serial(self):
        """Multi-DPU eBNN inference is bit-identical at any worker count."""
        from repro.core.mapping_ebnn import EbnnPimRunner
        from repro.datasets import generate_batch
        from repro.nn.models.ebnn import EbnnModel

        model = EbnnModel()
        batch = generate_batch(40, seed=21).normalized()  # 3 DPUs

        def run(workers):
            system = DpuSystem(SMALL)
            with parallel.worker_scope(workers):
                result = EbnnPimRunner(system, model).run(batch)
            return result

        serial = run(1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "PARALLEL_MIN_DPUS", 1)
            fanned = run(4)
        assert np.array_equal(fanned.predictions, serial.predictions)
        assert fanned.dpu_report.cycles == serial.dpu_report.cycles
        assert (
            fanned.dpu_report.per_dpu_cycles
            == serial.dpu_report.per_dpu_cycles
        )
        assert fanned.profile.records == serial.profile.records

    def test_ebnn_kernel_launch_fans_out_like_serial(self):
        """The eBNN executor launches in-process; the engine still matches.

        Stages a 40-image wave (3 DPUs) and launches the view with an
        explicit ``workers=2`` against the executor's ``workers=1``.
        """
        from repro.core.mapping_ebnn import EbnnExecutor
        from repro.datasets import generate_batch
        from repro.nn.models.ebnn import EbnnModel

        executor = EbnnExecutor(EbnnModel())
        batch = generate_batch(40, seed=21).normalized()
        layout = executor.layout

        def run(workers):
            system = DpuSystem(SMALL)
            dpu_set = system.allocate(3)
            executor.warm(dpu_set)
            view, _ = executor.stage(dpu_set.dpus, SMALL, batch)
            report = view.launch(**dict(executor.launch_args, workers=workers))
            memory = [d.read_symbol("results", layout.results_bytes) for d in view]
            profiles = [d.last_result.profile for d in view]
            system.free(dpu_set)
            return report, memory, profiles

        assert executor.launch_args["workers"] == 1
        serial = run(1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "PARALLEL_MIN_DPUS", 1)
            fanned = run(2)
        assert fanned[0].per_dpu_cycles == serial[0].per_dpu_cycles
        assert fanned[1] == serial[1]
        assert fanned[2] == serial[2]


class TestTelemetryIntegration:
    def test_parallel_launch_traces_like_serial(self):
        """Same span skeleton; the cursor advances once by the set time."""
        def spans(workers):
            system = DpuSystem(SMALL)
            dpu_set = system.allocate(8)
            dpu_set.load(mix_image())
            dpu_set.scatter("seed", [bytes([i + 1] * 8) for i in range(8)])
            with telemetry.tracing() as tracer:
                report = dpu_set.launch(workers=workers)
            system.free(dpu_set)
            return tracer, report

        serial_tracer, serial_report = spans(1)
        parallel_tracer, parallel_report = spans(4)
        for tracer, report in (
            (serial_tracer, serial_report),
            (parallel_tracer, parallel_report),
        ):
            execs = [s for s in tracer.all_spans() if s.name == "dpu.exec"]
            assert len(execs) == 8
            launches = [s for s in tracer.all_spans() if s.name == "dpu.launch"]
            assert len(launches) == 1
            assert tracer.sim_now == pytest.approx(report.seconds)
        s_cycles = sorted(
            s.attributes["cycles"]
            for s in serial_tracer.all_spans() if s.name == "dpu.exec"
        )
        p_cycles = sorted(
            s.attributes["cycles"]
            for s in parallel_tracer.all_spans() if s.name == "dpu.exec"
        )
        assert p_cycles == s_cycles

    def test_launch_span_records_worker_count(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(4)
        dpu_set.load(mix_image())
        dpu_set.scatter("seed", [bytes([i + 1] * 8) for i in range(4)])
        with telemetry.tracing() as tracer:
            dpu_set.launch(workers=2)
        launch_span = next(s for s in tracer.all_spans() if s.name == "dpu.launch")
        assert launch_span.attributes["workers"] == 2
        assert launch_span.attributes["asynchronous"] is False
        system.free(dpu_set)

    def test_parallel_counters_increment(self):
        before = telemetry.GLOBAL_METRICS.snapshot()
        run_mix(8, workers=4)
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        assert delta["parallel.launches"]["state"] == 1
        assert delta["parallel.chunks"]["state"] == 4
