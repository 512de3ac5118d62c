"""Tests for the warm DPU pool: lease, quarantine, heal, shutdown."""

import numpy as np
import pytest

from repro import faults
from repro.core.mapping_ebnn import EbnnPimRunner
from repro.core.mapping_yolo import YoloPimRunner
from repro.datasets import generate_batch
from repro.datasets.images import generate_scene
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.errors import AllocationError, ServeError
from repro.host.runtime import DpuSystem
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel
from repro.serve import (
    BatchPolicy,
    DpuPool,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    LoadSpec,
    YoloBackend,
    default_payloads,
    generate_load,
)

PAYLOADS = default_payloads()


def make_pool(n_system: int, n_pool: int, **kwargs) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(
        system, [EbnnBackend()], dpus_per_model=n_pool, **kwargs
    )


class TestPoolLifecycle:
    def test_lease_returns_warm_members(self):
        pool = make_pool(4, 3)
        members, attributes = pool.lease("ebnn")
        assert len(members) == 3
        assert attributes is pool.system.attributes
        # Warmed: the serve image is already resident on every member.
        assert all(m.image is not None for m in members)

    def test_models_and_backend_lookup(self):
        pool = make_pool(4, 2)
        assert pool.models() == ["ebnn"]
        assert pool.backend("ebnn").name == "ebnn"
        with pytest.raises(ServeError, match="no backend"):
            pool.backend("bert")
        with pytest.raises(ServeError, match="no backend"):
            pool.lease("bert")

    def test_needs_at_least_one_backend(self):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        with pytest.raises(ServeError, match="at least one"):
            DpuPool(system, [])
        with pytest.raises(ServeError, match=">= 1"):
            DpuPool(system, [EbnnBackend()], dpus_per_model=0)

    def test_shutdown_frees_and_poisons(self):
        pool = make_pool(4, 4)
        pool.shutdown()
        with pytest.raises(ServeError, match="shut-down"):
            pool.lease("ebnn")
        # The DPUs really went back to the system's free list.
        assert len(pool.system.allocate(4).dpus) == 4
        pool.shutdown()  # second shutdown is a no-op


class TestQuarantineAndHeal:
    def test_quarantine_heals_from_spare_dpus(self):
        pool = make_pool(6, 3)  # 3 spares available
        members, _ = pool.lease("ebnn")
        doomed = members[0].dpu_id
        assert pool.quarantine("ebnn", {doomed}) == 1
        assert pool.active_dpus("ebnn") == 3  # shrink then heal back
        healed, _ = pool.lease("ebnn")
        assert doomed not in {m.dpu_id for m in healed}

    def test_quarantine_shrinks_when_no_spares(self):
        pool = make_pool(3, 3)  # system fully committed to the pool
        members, _ = pool.lease("ebnn")
        assert pool.quarantine("ebnn", {members[0].dpu_id}) == 1
        assert pool.active_dpus("ebnn") == 2

    def test_heal_disabled_always_shrinks(self):
        pool = make_pool(6, 3, heal=False)
        members, _ = pool.lease("ebnn")
        pool.quarantine("ebnn", {members[0].dpu_id})
        assert pool.active_dpus("ebnn") == 2

    def test_quarantine_unknown_dpu_is_a_no_op(self):
        pool = make_pool(4, 2)
        assert pool.quarantine("ebnn", {9999}) == 0
        assert pool.active_dpus("ebnn") == 2

    def test_quarantined_dpu_never_returns_to_the_free_list(self):
        pool = make_pool(3, 2)  # one spare
        members, _ = pool.lease("ebnn")
        doomed = members[0].dpu_id
        pool.quarantine("ebnn", {doomed})  # heals from the spare
        assert pool.active_dpus("ebnn") == 2
        # System now fully allocated: 1 quarantined + 2 serving.
        with pytest.raises(AllocationError):
            pool.system.allocate(1)

    def test_lease_after_all_quarantined_raises(self):
        pool = make_pool(2, 2, heal=False)
        members, _ = pool.lease("ebnn")
        pool.quarantine("ebnn", {m.dpu_id for m in members})
        assert pool.active_dpus("ebnn") == 0
        with pytest.raises(ServeError, match="no healthy DPUs"):
            pool.lease("ebnn")


class TestShrinkMidLoad:
    def test_pool_shrinks_after_fault_isolation_mid_load(self):
        """Faults mid-run shrink the pool (no spares) yet lose nothing."""
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(7))
        pool = DpuPool(
            system,
            [EbnnBackend(), YoloBackend()],
            dpus_per_model={"ebnn": 4, "yolo": 3},  # no spare DPUs
        )
        before = {m: pool.active_dpus(m) for m in pool.models()}
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
        after = {m: pool.active_dpus(m) for m in pool.models()}
        assert sum(after.values()) < sum(before.values())
        assert all(n >= 1 for n in after.values())
        assert len(result.completed) + len(result.rejected) == len(requests)


class TestOfflineEqualsServed:
    """Backends and offline runners share one executor per model."""

    @staticmethod
    def _serve(backend, requests):
        pool = DpuPool(
            DpuSystem(UPMEM_ATTRIBUTES.scaled(4)), [backend], dpus_per_model=4
        )
        members, attributes = pool.lease(backend.name)
        return backend.run_batch(members, attributes, requests, 0.0, None)

    def test_ebnn_batch_matches_runner(self):
        model = EbnnModel()
        images = generate_batch(48, seed=19).normalized()
        offline = EbnnPimRunner(
            DpuSystem(UPMEM_ATTRIBUTES.scaled(4)), model
        ).run(images)
        requests = [
            InferenceRequest(i, "ebnn", image) for i, image in enumerate(images)
        ]
        execution = self._serve(EbnnBackend(model), requests)
        labels = [execution.outputs[i] for i in range(len(images))]
        assert labels == offline.predictions.tolist()
        assert execution.seconds == offline.total_seconds

    def test_yolo_request_matches_runner(self):
        scene = generate_scene(64)
        runner = YoloPimRunner(
            DpuSystem(UPMEM_ATTRIBUTES.scaled(4)),
            Yolov3Model(64, width_scale=0.05, seed=21),
        )
        offline = runner.run(scene)
        execution = self._serve(
            YoloBackend(), [InferenceRequest(0, "yolo", scene)]
        )
        served = execution.outputs[0]
        assert len(served) == len(offline)
        assert all(
            s.dtype == o.dtype and np.array_equal(s, o)
            for s, o in zip(served, offline)
        )
        assert execution.seconds == pytest.approx(
            runner.timing().total_seconds, rel=1e-12
        )
