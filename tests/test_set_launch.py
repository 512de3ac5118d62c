"""Set-level launches agree with the per-DPU path they replace.

``DpuSet.launch`` runs a kernel's set form once per launch when it may
(see ``repro.dpu.kernel.KernelRegistry``).  The oracle here is a plain
loop of ``Dpu.launch`` calls over a deep copy of the same DPUs, taken just
before the set launch.  Every per-DPU observable must match it: memory
and write tracking, DMA counters, ``last_result``, per-DPU cycles, metric
deltas and ``dpu.exec`` spans.  A DPU with an injected fault or a bad
metadata block makes the launch fall back to the per-DPU path, which then
behaves exactly as it always has.
"""

import copy

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core import mapping_yolo
from repro.core.mapping_yolo import YOLO_TASKLETS, YoloDpuLayout
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.errors import MappingError
from repro.host.runtime import DpuSet, DpuSystem
from repro.host.transfer import scatter_rows
from repro.nn.gemm import GemmShape

#: Metrics a set launch moves that a bare ``Dpu.launch`` loop does not.
SET_LEVEL_METRICS = {"dpu.launches", "launch.seconds"}

#: Metrics every per-DPU run moves, fault or not.
PER_DPU_METRICS = ("dpu.execs", "dpu.instructions", "launch.cycles")

N_DPUS = 8


@pytest.fixture(autouse=True)
def no_ambient_plan():
    """Run without the environment's fault plan unless a test installs one."""
    previous = faults.install_plan(None)
    try:
        yield
    finally:
        faults.install_plan(previous)


@pytest.fixture
def charges(monkeypatch):
    """Counts ``charge_gemm_row_costs`` calls: 1 per set launch, else 1 per DPU."""
    calls = []
    original = mapping_yolo.charge_gemm_row_costs

    def counting(ctx, shape, **kwargs):
        calls.append(shape)
        return original(ctx, shape, **kwargs)

    monkeypatch.setattr(mapping_yolo, "charge_gemm_row_costs", counting)
    return calls


def stage(m, *, n=640, k=60, seed=0):
    """A YOLO layer staged as ``YoloExecutor.gemm`` does, on ``N_DPUS`` DPUs.

    B spans two 64 KiB MRAM pages, so staging dirties a page the launch
    does not write.
    """
    shape = GemmShape(m, n, k)
    layout = YoloDpuLayout(shape)
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(N_DPUS))
    dpu_set = system.allocate(N_DPUS)
    dpu_set.load(layout.build_image())
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, (m, k), dtype=np.int16)
    b = rng.integers(-128, 128, (k, n), dtype=np.int16)
    dpu_set.broadcast("b", b.reshape(-1))
    dpu_set.broadcast("meta", meta(shape))
    return dpu_set, layout, a


def meta(shape, alpha=1, divisor=32):
    return np.array([shape.m, shape.n, shape.k, alpha, divisor, 0], np.int32)


def wave(dpu_set, a, rows):
    """Scatter ``rows`` of A onto the first ``len(rows)`` DPUs."""
    members = DpuSet(dpu_set.dpus[: len(rows)], dpu_set.attributes)
    members.image = dpu_set.image
    scatter_rows(members.dpus, "a_row", [a[r] for r in rows])
    return members


def observe(run):
    """Run ``run()``; return its value (or error), metric delta and spans."""
    before = telemetry.GLOBAL_METRICS.snapshot()
    with telemetry.tracing() as tracer:
        try:
            value = run()
        except MappingError as exc:
            value = exc
    delta = telemetry.GLOBAL_METRICS.delta_since(before)
    spans = [
        (s.track, s.sim_start, s.sim_end, s.attributes)
        for s in tracer.find("dpu.exec")
    ]
    return value, delta, spans


def set_launch(members, layout, fault_policy="raise"):
    return observe(lambda: members.launch(
        n_tasklets=YOLO_TASKLETS,
        opt_level=OptLevel.O3,
        workers=1,
        fault_policy=fault_policy,
        layout=layout,
    ))


def oracle_loop(dpus, layout, *, tolerant=False):
    """The per-DPU path by hand: one ``Dpu.launch`` per DPU, never injected.

    A tolerant launch starts write tracking afresh before each DPU.
    """

    def run():
        cycles = []
        for dpu in dpus:
            if tolerant:
                dpu.reset_memory_dirty()
            result = dpu.launch(
                n_tasklets=YOLO_TASKLETS, opt_level=OptLevel.O3, layout=layout
            )
            cycles.append(float(result.cycles))
        return cycles

    return observe(run)


def state(dpu):
    """Everything a launch may change on one DPU."""
    saved = dpu.checkpoint()
    result = dpu.last_result
    return (
        {index: page.tobytes() for index, page in saved.mram_pages.items()},
        saved.wram.tobytes(),
        saved.dma,
        dpu.mram.dirty_pages(),
        dpu.wram.dirty_span(),
        None if result is None else (
            result.cycles,
            result.issue_slots,
            result.dma_cycles,
            result.dma_bytes,
            result.n_tasklets,
            {
                name: (record.occurrences, record.instructions)
                for name, record in result.profile.records.items()
            },
        ),
    )


def per_dpu(delta):
    return {name: delta[name] for name in PER_DPU_METRICS}


def without_set_level(delta):
    return {k: v for k, v in delta.items() if k not in SET_LEVEL_METRICS}


def c_rows(dpus, n):
    return [dpu.read_symbol_array("c_row", np.int32, n) for dpu in dpus]


class TestSetPathMatchesPerDpuLoop:
    @pytest.mark.parametrize("fault_policy", ["raise", "isolate", "retry"])
    @pytest.mark.parametrize(
        "m, wave_rows",
        [
            (N_DPUS, range(0, N_DPUS)),          # a full wave
            (N_DPUS + 3, range(N_DPUS, N_DPUS + 3)),  # the partial last wave
            (5, range(0, 5)),                    # M smaller than the set
        ],
        ids=["full", "partial", "m_smaller"],
    )
    def test_every_observable(self, charges, m, wave_rows, fault_policy):
        dpu_set, layout, a = stage(m)
        if wave_rows.start:
            wave(dpu_set, a, range(0, N_DPUS)).launch(
                n_tasklets=YOLO_TASKLETS, opt_level=OptLevel.O3,
                workers=1, layout=layout,
            )
        members = wave(dpu_set, a, wave_rows)
        oracle = copy.deepcopy(members.dpus)
        charges.clear()
        report, delta, spans = set_launch(members, layout, fault_policy)
        assert len(charges) == 1  # the set form ran
        tolerant = fault_policy != "raise"
        cycles, oracle_delta, oracle_spans = oracle_loop(
            oracle, layout, tolerant=tolerant
        )
        assert report.per_dpu_cycles == cycles
        assert [state(d) for d in members] == [state(d) for d in oracle]
        for got, want in zip(
            c_rows(members, layout.shape.n), c_rows(oracle, layout.shape.n)
        ):
            assert np.array_equal(got, want)
        assert without_set_level(delta) == without_set_level(oracle_delta)
        assert delta["dpu.execs"]["state"] == len(wave_rows)
        assert spans == oracle_spans and len(spans) == len(wave_rows)
        if tolerant:
            assert [
                (o.index, o.dpu_id, o.status, o.attempts)
                for o in report.outcomes
            ] == [(i, d.dpu_id, "ok", 1) for i, d in enumerate(members)]
        else:
            assert report.outcomes == []

    def test_dpus_with_their_own_b_alpha_and_divisor(self, charges):
        dpu_set, layout, a = stage(N_DPUS)
        shape = layout.shape
        rng = np.random.default_rng(9)
        other_b = rng.integers(-128, 128, shape.k * shape.n, dtype=np.int16)
        dpu_set[2].write_symbol_array("b", other_b)
        dpu_set[5].write_symbol_array("b", other_b)
        dpu_set[3].write_symbol_array("meta", meta(shape, alpha=3))
        dpu_set[4].write_symbol_array("meta", meta(shape, divisor=0))
        dpu_set[6].write_symbol_array("meta", meta(shape, divisor=128))
        members = wave(dpu_set, a, range(N_DPUS))
        oracle = copy.deepcopy(members.dpus)
        charges.clear()
        report, delta, spans = set_launch(members, layout)
        assert len(charges) == 1
        cycles, oracle_delta, oracle_spans = oracle_loop(oracle, layout)
        assert report.per_dpu_cycles == cycles
        assert [state(d) for d in members] == [state(d) for d in oracle]
        assert without_set_level(delta) == without_set_level(oracle_delta)
        assert spans == oracle_spans

    def test_no_dpu_shares_a_mutable_result(self):
        dpu_set, layout, a = stage(N_DPUS)
        members = wave(dpu_set, a, range(N_DPUS))
        set_launch(members, layout)
        results = [dpu.last_result for dpu in members]
        assert len({id(r) for r in results}) == N_DPUS
        assert len({id(r.profile) for r in results}) == N_DPUS
        records = [
            id(record) for r in results for record in r.profile.records.values()
        ]
        assert records and len(set(records)) == len(records)
        before = results[1].profile.occurrences("__divsi3")
        results[0].profile.record("__divsi3", 1, 5)
        assert results[1].profile.occurrences("__divsi3") == before


class TestFallback:
    def test_exec_fault_under_isolate(self, charges):
        dpu_set, layout, a = stage(N_DPUS)
        members = wave(dpu_set, a, range(N_DPUS))
        victim = members[1].dpu_id
        oracle = copy.deepcopy(members.dpus)
        plan = faults.FaultPlan(
            targets={victim: faults.FaultKind.FAULT}, target_attempts=99
        )
        charges.clear()
        with faults.fault_injection(plan):
            report, delta, spans = set_launch(members, layout, "isolate")
        assert len(charges) == N_DPUS - 1  # per-DPU kernels, victim skipped
        healthy = [d for d in oracle if d.dpu_id != victim]
        cycles, oracle_delta, oracle_spans = oracle_loop(
            healthy, layout, tolerant=True
        )
        assert [o.status for o in report.outcomes] == (
            ["ok", "faulted"] + ["ok"] * (N_DPUS - 2)
        )
        assert report.per_dpu_cycles == [cycles[0], 0.0] + cycles[1:]
        assert [state(d) for d in members if d.dpu_id != victim] == [
            state(d) for d in healthy
        ]
        assert members[1].last_result is None
        assert state(members[1])[:3] == state(oracle[1])[:3]
        assert per_dpu(delta) == per_dpu(oracle_delta)
        assert spans == oracle_spans

    def test_exec_fault_under_retry(self, charges):
        dpu_set, layout, a = stage(N_DPUS)
        members = wave(dpu_set, a, range(N_DPUS))
        victim = members[1].dpu_id
        oracle = copy.deepcopy(members.dpus)
        plan = faults.FaultPlan(
            targets={victim: faults.FaultKind.FAULT}, target_attempts=1
        )
        charges.clear()
        with faults.fault_injection(plan):
            report, delta, spans = set_launch(members, layout, "retry")
        assert len(charges) == N_DPUS
        cycles, oracle_delta, oracle_spans = oracle_loop(
            oracle, layout, tolerant=True
        )
        assert [o.attempts for o in report.outcomes] == (
            [1, 2] + [1] * (N_DPUS - 2)
        )
        assert report.per_dpu_cycles == cycles
        assert [state(d) for d in members] == [state(d) for d in oracle]
        assert per_dpu(delta) == per_dpu(oracle_delta)
        assert spans == oracle_spans

    @pytest.mark.parametrize("fault_policy", ["raise", "isolate"])
    def test_corrupted_meta_raises_the_per_dpu_error(self, fault_policy):
        dpu_set, layout, a = stage(N_DPUS)
        shape = layout.shape
        bad = GemmShape(shape.m, shape.n + 4, shape.k)
        dpu_set[3].write_symbol_array("meta", meta(bad))
        members = wave(dpu_set, a, range(N_DPUS))
        oracle = copy.deepcopy(members.dpus)
        error, delta, spans = set_launch(members, layout, fault_policy)
        oracle_error, oracle_delta, oracle_spans = oracle_loop(
            oracle, layout, tolerant=fault_policy != "raise"
        )
        assert isinstance(error, MappingError)
        assert str(error) == str(oracle_error)
        assert [d.last_result is not None for d in members] == (
            [True] * 3 + [False] * (N_DPUS - 3)
        )
        assert [state(d) for d in members] == [state(d) for d in oracle]
        assert without_set_level(delta) == without_set_level(oracle_delta)
        assert spans == oracle_spans and len(spans) == 3
