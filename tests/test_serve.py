"""Tests for the online serving layer (repro.serve)."""

import math

import numpy as np
import pytest

from repro import faults
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.errors import ServeError
from repro.host.parallel import worker_scope
from repro.host.runtime import DpuSystem
from repro.serve import (
    BatchPolicy,
    DpuPool,
    DynamicBatcher,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    LoadSpec,
    RejectReason,
    YoloBackend,
    default_payloads,
    generate_load,
    run_offline,
)

PAYLOADS = default_payloads()


def ebnn_pool(n_system: int = 4, n_pool: int = 2) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(system, [EbnnBackend()], dpus_per_model=n_pool)


def mixed_pool(n_system: int = 8) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(
        system,
        [EbnnBackend(), YoloBackend()],
        dpus_per_model={"ebnn": 3, "yolo": 2},
    )


def ebnn_request(request_id: int, arrival_s: float = 0.0, **kwargs):
    return InferenceRequest(
        request_id=request_id,
        model="ebnn",
        payload=PAYLOADS["ebnn"](request_id),
        arrival_s=arrival_s,
        **kwargs,
    )


def outputs_equal(got, want) -> bool:
    if isinstance(got, (int, np.integer)):
        return got == want
    return all(np.array_equal(a, b) for a, b in zip(got, want))


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ServeError):
            BatchPolicy(max_delay_s=-1.0)
        with pytest.raises(ServeError):
            BatchPolicy(queue_cap=0, max_batch=1)
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=32, queue_cap=16)


class TestDynamicBatcher:
    def test_empty_queue_never_schedules_a_flush(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        assert batcher.flush_at(0.0) == math.inf
        assert batcher.flush_at(123.0) == math.inf
        batch, expired = batcher.pop_batch(0.0)
        assert batch == [] and expired == []

    def test_single_request_waits_exactly_max_delay(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=2e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0, arrival_s=1.0))
        assert batcher.flush_at(1.0) == pytest.approx(1.0 + 2e-3)

    def test_full_queue_flushes_immediately(self):
        policy = BatchPolicy(max_batch=2, max_delay_s=1.0)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0))
        batcher.offer(ebnn_request(1))
        assert batcher.flush_at(5e-4) == 5e-4

    def test_overdue_queue_does_not_move_clock_backwards(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=1e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0, arrival_s=0.0))
        assert batcher.flush_at(0.5) == 0.5

    def test_deadline_pulls_flush_earlier(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=10e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.note_service(1e-3)
        batcher.offer(ebnn_request(0, arrival_s=0.0, deadline_s=4e-3))
        assert batcher.flush_at(0.0) == pytest.approx(3e-3)

    def test_bounded_queue_rejects_then_force_bypasses(self):
        policy = BatchPolicy(max_batch=2, max_delay_s=1e-3, queue_cap=2)
        batcher = DynamicBatcher("ebnn", policy)
        assert batcher.offer(ebnn_request(0)) is None
        assert batcher.offer(ebnn_request(1)) is None
        assert batcher.offer(ebnn_request(2)) is RejectReason.QUEUE_FULL
        assert batcher.offer(ebnn_request(3), force=True) is None
        assert len(batcher) == 3

    def test_pop_splits_expired_requests(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        batcher.offer(ebnn_request(0, deadline_s=1e-3))
        batcher.offer(ebnn_request(1))
        batch, expired = batcher.pop_batch(2e-3)
        assert [r.request_id for r in batch] == [1]
        assert [r.request_id for r in expired] == [0]

    def test_requeue_goes_to_the_head(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        batcher.offer(ebnn_request(0))
        batcher.requeue(ebnn_request(7))
        batch, _ = batcher.pop_batch(0.0)
        assert [r.request_id for r in batch] == [7, 0]


class TestServerBasics:
    def test_single_request_serves_after_max_delay(self):
        pool = ebnn_pool()
        policy = BatchPolicy(max_batch=8, max_delay_s=3e-3)
        server = InferenceServer(pool, policy=policy)
        result = server.run([ebnn_request(0, arrival_s=1e-3)])
        response = result.responses[0]
        assert response.ok
        assert response.batch_size == 1
        # The flush waited the full delay hoping for batch-mates.
        assert response.completed_s >= 1e-3 + 3e-3

    def test_unknown_model_raises(self):
        server = InferenceServer(ebnn_pool())
        with pytest.raises(ServeError, match="unknown model"):
            server.submit(
                InferenceRequest(request_id=0, model="bert", payload=None)
            )

    @pytest.mark.parametrize("shape", [(27, 27), (30, 30), (28, 28, 1)])
    def test_misshapen_ebnn_payload_raises(self, shape):
        server = InferenceServer(ebnn_pool())
        bad = InferenceRequest(
            request_id=0, model="ebnn", payload=np.zeros(shape)
        )
        with pytest.raises(ServeError, match=r"request 0: eBNN payload has shape"):
            server.submit(bad)
        # Never admitted: the id is still free.
        assert server.submit(ebnn_request(0)) is None

    def test_duplicate_request_id_raises(self):
        server = InferenceServer(ebnn_pool())
        server.submit(ebnn_request(3))
        with pytest.raises(ServeError, match="duplicate"):
            server.submit(ebnn_request(3))

    def test_backpressure_rejects_exact_overflow_count(self):
        pool = ebnn_pool()
        policy = BatchPolicy(max_batch=4, max_delay_s=1e-3, queue_cap=8)
        server = InferenceServer(pool, policy=policy)
        requests = [ebnn_request(i, arrival_s=0.0) for i in range(20)]
        result = server.run(requests)
        reasons = result.rejects_by_reason()
        assert reasons == {"queue_full": 12}
        assert len(result.completed) == 8
        assert len(result.completed) + len(result.rejected) == 20

    def test_shutdown_finishes_in_flight_then_rejects(self):
        pool = ebnn_pool()
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        for i in range(3):
            assert server.submit(ebnn_request(i)) is None
        server.shutdown()
        result = server.result()
        assert len(result.completed) == 3  # in-flight work finished
        late = server.submit(ebnn_request(99))
        assert late is not None
        assert late.reason is RejectReason.SHUTTING_DOWN
        assert len(server.result().responses) == 4

    def test_drain_empties_every_queue(self):
        server = InferenceServer(
            ebnn_pool(), policy=BatchPolicy(max_batch=16, max_delay_s=1e-3)
        )
        for i in range(5):
            server.submit(ebnn_request(i))
        server.drain()
        assert len(server.result().completed) == 5

    def test_deadline_shedding_cancels_the_launch(self):
        """A hopeless batch is abandoned: memory rolled back, no sim time."""
        pool = ebnn_pool()
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        # eBNN service time is ~ tens of ms simulated; a 2 ms deadline
        # cannot be met, so the wave is shed via AsyncLaunch.cancel().
        result = server.run([ebnn_request(0, deadline_s=2e-3)])
        response = result.responses[0]
        assert not response.ok
        assert response.reason is RejectReason.DEADLINE_EXCEEDED

    def test_every_request_resolves_exactly_once(self):
        pool = mixed_pool()
        spec = LoadSpec(
            rps=2000.0, duration_s=0.008, seed=3,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )
        requests = generate_load(spec, PAYLOADS)
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        result = server.run(requests)
        assert sorted(r.request_id for r in result.responses) == sorted(
            r.request_id for r in requests
        )
        assert len(result.completed) + len(result.rejected) == len(requests)


class TestBatchingEquivalence:
    """Batched outputs must be bit-identical to one-at-a-time runs."""

    SPEC = LoadSpec(
        rps=2500.0, duration_s=0.006, seed=17,
        mix=(("ebnn", 3.0), ("yolo", 1.0)),
    )

    def _serve(self, policy: BatchPolicy):
        requests = generate_load(self.SPEC, PAYLOADS)
        server = InferenceServer(mixed_pool(), policy=policy)
        return requests, server.run(requests)

    @pytest.mark.parametrize(
        "max_batch,max_delay_s",
        [(1, 0.0), (4, 1e-3), (16, 5e-3)],
    )
    def test_outputs_identical_at_every_policy(self, max_batch, max_delay_s):
        policy = BatchPolicy(
            max_batch=max_batch, max_delay_s=max_delay_s, queue_cap=64
        )
        requests, result = self._serve(policy)
        assert len(result.completed) == len(requests)
        reference = run_offline(mixed_pool(), requests)
        for response in result.completed:
            assert outputs_equal(
                response.output, reference[response.request_id]
            ), f"request {response.request_id} diverged under batching"

    def test_deterministic_across_worker_counts(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=1e-3)
        requests, serial = self._serve(policy)
        with worker_scope(2):
            _, parallel_run = self._serve(policy)
        assert [r.completed_s for r in serial.responses] == [
            r.completed_s for r in parallel_run.responses
        ]
        for a, b in zip(serial.responses, parallel_run.responses):
            assert a.request_id == b.request_id
            assert outputs_equal(a.output, b.output)

    def test_latencies_deterministic_across_runs(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=1e-3)
        _, first = self._serve(policy)
        _, second = self._serve(policy)
        assert [r.completed_s for r in first.responses] == [
            r.completed_s for r in second.responses
        ]


class TestFaultTolerance:
    def test_graceful_degradation_under_isolate(self):
        """Injected DPU faults shrink the pool but lose no requests."""
        pool = mixed_pool(n_system=10)
        spec = LoadSpec(
            rps=1500.0, duration_s=0.01, seed=11,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )
        requests = generate_load(spec, PAYLOADS)
        server = InferenceServer(
            pool,
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
            fault_policy="isolate",
        )
        plan = faults.FaultPlan(
            seed=5, fault_rate=0.35, default_policy="isolate"
        )
        with faults.fault_injection(plan):
            result = server.run(requests)
        assert len(result.completed) + len(result.rejected) == len(requests)
        # The injected faults really happened and were retried around.
        retried = [r for r in result.completed if r.attempts > 1]
        assert retried, "expected at least one completed-via-retry request"
        assert pool.active_dpus("ebnn") >= 1
        assert pool.active_dpus("yolo") >= 1

    def test_faulty_outputs_match_clean_outputs(self):
        """Retried requests produce the same bits as a fault-free run."""
        spec = LoadSpec(rps=1200.0, duration_s=0.008, seed=11)
        requests = generate_load(spec, PAYLOADS)
        clean = InferenceServer(
            ebnn_pool(n_system=6, n_pool=3),
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
        ).run(requests)
        server = InferenceServer(
            ebnn_pool(n_system=6, n_pool=3),
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
            fault_policy="isolate",
        )
        plan = faults.FaultPlan(
            seed=5, fault_rate=0.35, default_policy="isolate"
        )
        with faults.fault_injection(plan):
            faulty = server.run(requests)
        clean_outputs = clean.outputs()
        for response in faulty.completed:
            assert outputs_equal(
                response.output, clean_outputs[response.request_id]
            )


class TestLoadgen:
    def test_same_seed_same_workload(self):
        spec = LoadSpec(rps=3000.0, duration_s=0.004, seed=9,
                        mix=(("ebnn", 1.0), ("yolo", 1.0)))
        a = generate_load(spec, PAYLOADS)
        b = generate_load(spec, PAYLOADS)
        assert [(r.request_id, r.model, r.arrival_s) for r in a] == [
            (r.request_id, r.model, r.arrival_s) for r in b
        ]

    def test_uniform_process_spaces_arrivals_evenly(self):
        spec = LoadSpec(
            rps=1000.0, duration_s=0.005, seed=0,
            arrival_process="uniform",
        )
        requests = generate_load(spec, PAYLOADS)
        gaps = np.diff([r.arrival_s for r in requests])
        assert np.allclose(gaps, 1e-3)

    def test_relative_deadline_is_applied(self):
        spec = LoadSpec(
            rps=1000.0, duration_s=0.003, seed=0, deadline_s=5e-3
        )
        for request in generate_load(spec, PAYLOADS):
            assert request.deadline_s == pytest.approx(
                request.arrival_s + 5e-3
            )

    def test_validation(self):
        with pytest.raises(ServeError):
            LoadSpec(rps=0.0, duration_s=1.0)
        with pytest.raises(ServeError):
            LoadSpec(rps=1.0, duration_s=1.0, mix=())
        with pytest.raises(ServeError):
            LoadSpec(rps=1.0, duration_s=1.0, arrival_process="bursts")
        with pytest.raises(ServeError):
            generate_load(
                LoadSpec(rps=1.0, duration_s=1.0, mix=(("bert", 1.0),)),
                PAYLOADS,
            )
