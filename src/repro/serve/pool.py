"""Warm DPU-set pool and the per-model-class serving backends.

The pool owns the hardware side of serving: at construction it allocates
one group of DPUs per model class, *warms* it (program image loaded,
LUTs/weights staged — the expensive one-time work), and afterwards leases
the healthy members out per batch.  The backends are thin adapters over
the offline executors in :mod:`repro.core`, so a served output is the
offline output by construction:

* **eBNN** (:class:`~repro.core.mapping_ebnn.EbnnExecutor`, Section
  4.1.3): a batch is packed 16 images to a DPU and one set-wide launch
  finishes each wave in the time of one DPU.
* **YOLO** (:class:`~repro.core.mapping_yolo.YoloExecutor`, Section
  4.2.3, Fig. 4.6): each request's layer GEMMs are sharded one row of A
  per DPU, so a request occupies the whole lease and requests of a batch
  execute back-to-back on warm hardware.

What stays here is serving's own logic: leases, asynchronous launch with
deadline shedding, and fault quarantine.

Fault isolation composes with the fault-tolerant launches: batches launch
under the server's ``fault_policy``, a degraded
:class:`~repro.host.runtime.LaunchReport` names the dead DPUs, and the
pool **quarantines** them (shrinking the lease) and **heals** by
allocating and warming replacements while any remain in the system.
Requests that lived on a dead DPU come back in
:attr:`BatchExecution.failed` for the server's retry path — never
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.mapping_ebnn import EbnnExecutor
from repro.core.mapping_yolo import YoloExecutor
from repro.errors import AllocationError, DegradedLaunchError, ServeError
from repro.host.runtime import DpuSet, DpuSystem
# Importable from here as before (the traced benchmark wraps these names).
from repro.nn.binary import pack_image, unpack_bits  # noqa: F401
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel
from repro.serve.request import InferenceRequest

_M_POOL_ACTIVE = telemetry.GLOBAL_METRICS.gauge(
    "pool.active", "healthy DPUs currently serving, per model class"
)
_M_POOL_QUARANTINED = telemetry.GLOBAL_METRICS.counter(
    "pool.quarantined", "DPUs removed from serving after fault isolation"
)
_M_POOL_HEALED = telemetry.GLOBAL_METRICS.counter(
    "pool.healed", "replacement DPUs allocated and warmed by the pool"
)


@dataclass
class BatchExecution:
    """What one batch did to the hardware and to its requests.

    ``outputs`` maps request id to the model output for every request
    that completed.  ``shed`` requests were abandoned before execution
    because every member of their launch had already missed its deadline
    (the launch was cancelled and memory rolled back).  ``failed``
    requests lived on fault-isolated DPUs; ``failed_dpu_ids`` names those
    DPUs so the pool can quarantine them.
    """

    outputs: dict[int, Any] = field(default_factory=dict)
    seconds: float = 0.0
    shed: list[InferenceRequest] = field(default_factory=list)
    failed: list[InferenceRequest] = field(default_factory=list)
    failed_dpu_ids: set[int] = field(default_factory=set)


class ModelBackend:
    """One model class's warm-up and batch-execution recipe."""

    #: Backend key requests route on (``InferenceRequest.model``).
    name: str = ""

    def warm(self, dpu_set: DpuSet) -> None:
        """One-time staging onto freshly allocated DPUs."""
        raise NotImplementedError

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        """Execute ``requests`` on the leased ``members`` starting at ``now``."""
        raise NotImplementedError


class EbnnBackend(ModelBackend):
    """Multi-image-per-DPU eBNN serving over :class:`EbnnExecutor`.

    Warm-up is the executor's: kernel image loaded, Algorithm 1 LUT
    broadcast.  Per batch the backend stages each wave through the
    executor, launches it asynchronously so a hopeless wave can be shed,
    and classifies only the DPUs that survived the fault policy.
    Keyword options are the executor's.
    """

    name = "ebnn"

    def __init__(self, model: EbnnModel | None = None, **options) -> None:
        self.model = model if model is not None else EbnnModel()
        self.executor = EbnnExecutor(self.model, **options)

    def warm(self, dpu_set: DpuSet) -> None:
        self.executor.warm(dpu_set)

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        executor = self.executor
        per_dpu = executor.layout.images_per_dpu
        capacity = len(members) * per_dpu
        execution = BatchExecution()
        for first in range(0, len(requests), capacity):
            wave = requests[first : first + capacity]
            view, counts = executor.stage(
                members, attributes, [np.asarray(r.payload) for r in wave]
            )
            try:
                handle = view.launch_async(
                    fault_policy=fault_policy, **executor.launch_args
                )
            except DegradedLaunchError as failure:
                # Every DPU failed: the whole wave goes to the retry path.
                execution.failed.extend(wave)
                execution.failed_dpu_ids.update(failure.failed_dpu_ids)
                continue

            # Deadline shedding: when every request of the wave would
            # finish past its deadline, the work is worthless — abandon
            # the launch and roll the DPUs back instead of charging
            # simulated time.
            host_seconds = executor.HOST_SECONDS_PER_IMAGE * len(wave)
            completion = (
                now + execution.seconds + handle.pending_seconds + host_seconds
            )
            if all(
                r.deadline_s is not None and completion > r.deadline_s
                for r in wave
            ):
                handle.cancel()
                execution.shed.extend(wave)
                continue

            report = handle.wait()
            failed = {o.index for o in report.failed}
            n_classified = 0
            for d, (dpu, count) in enumerate(zip(view, counts)):
                chunk = wave[d * per_dpu : d * per_dpu + count]
                if d in failed:
                    execution.failed.extend(chunk)
                    execution.failed_dpu_ids.add(dpu.dpu_id)
                    continue
                labels = executor.classify(dpu, count)
                for request, label in zip(chunk, labels):
                    execution.outputs[request.request_id] = label
                n_classified += count
            host_seconds = executor.HOST_SECONDS_PER_IMAGE * n_classified
            telemetry.advance_sim(host_seconds)
            execution.seconds += report.seconds + host_seconds
        return execution


class YoloBackend(ModelBackend):
    """Multi-DPU-per-image YOLO serving over :class:`YoloExecutor`.

    Warm-up quantizes every conv layer's weights once (the "preloaded
    weights" of the pool); each request then runs the executor's
    forward on the healthy members, so a degraded wave fails only the
    request in flight and shrinks the members the rest of the batch
    runs on.  Keyword options are the executor's.
    """

    name = "yolo"

    def __init__(self, model: Yolov3Model | None = None, **options) -> None:
        self.model = (
            model if model is not None
            else Yolov3Model(64, width_scale=0.05, seed=21)
        )
        self.executor = YoloExecutor(self.model, **options)

    def warm(self, dpu_set: DpuSet) -> None:
        # Host-side only: per-layer program images load per request,
        # because each layer's GEMM shape is its own image.
        self.executor.warm()

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        execution = BatchExecution()
        active = list(members)
        for request in requests:
            if not active:
                execution.failed.append(request)
                continue
            try:
                detections, reports = self.executor.forward(
                    request.payload, active, attributes, fault_policy
                )
            except DegradedLaunchError as failure:
                execution.failed.append(request)
                execution.failed_dpu_ids.update(failure.failed_dpu_ids)
                active = [
                    d for d in active
                    if d.dpu_id not in failure.failed_dpu_ids
                ]
                reports = failure.reports
            else:
                execution.outputs[request.request_id] = detections
            # Simulated time spent on the waves, completed or aborted.
            seconds = 0.0
            for report in reports:
                seconds += report.seconds
            execution.seconds += seconds
        return execution


@dataclass
class _PoolEntry:
    backend: ModelBackend
    sets: list[DpuSet]
    members: list
    quarantined: set[int] = field(default_factory=set)


class DpuPool:
    """Warm per-model DPU groups with quarantine-and-heal lifecycle."""

    def __init__(
        self,
        system: DpuSystem,
        backends: list[ModelBackend] | dict[str, ModelBackend],
        *,
        dpus_per_model: int | dict[str, int] = 4,
        heal: bool = True,
    ) -> None:
        if isinstance(backends, dict):
            backend_map = dict(backends)
        else:
            backend_map = {b.name: b for b in backends}
        if not backend_map:
            raise ServeError("a DpuPool needs at least one model backend")
        self.system = system
        self.heal = heal
        self._entries: dict[str, _PoolEntry] = {}
        self._closed = False
        for model, backend in backend_map.items():
            n = (
                dpus_per_model.get(model, 4)
                if isinstance(dpus_per_model, dict) else dpus_per_model
            )
            if n < 1:
                raise ServeError(
                    f"dpus_per_model for {model!r} must be >= 1, got {n}"
                )
            dpu_set = system.allocate(n)
            backend.warm(dpu_set)
            self._entries[model] = _PoolEntry(
                backend=backend, sets=[dpu_set], members=list(dpu_set.dpus)
            )
            _M_POOL_ACTIVE.labels(model=model).set(n)

    def models(self) -> list[str]:
        return sorted(self._entries)

    def _entry(self, model: str) -> _PoolEntry:
        entry = self._entries.get(model)
        if entry is None:
            raise ServeError(
                f"no backend for model {model!r}; pool serves "
                f"{self.models()}"
            )
        return entry

    def backend(self, model: str) -> ModelBackend:
        return self._entry(model).backend

    def active_dpus(self, model: str) -> int:
        return len(self._entry(model).members)

    def lease(self, model: str) -> tuple[list, Any]:
        """The healthy members (and attributes) to run one batch on."""
        if self._closed:
            raise ServeError("lease from a shut-down pool")
        entry = self._entry(model)
        if not entry.members:
            raise ServeError(
                f"no healthy DPUs remain for model {model!r}: "
                f"{len(entry.quarantined)} quarantined, healing exhausted"
            )
        return list(entry.members), self.system.attributes

    def quarantine(self, model: str, dpu_ids: set[int]) -> int:
        """Remove fault-isolated DPUs from serving; heal if possible.

        Returns the number of DPUs actually removed.  Healing allocates
        the same number of replacements from the system (when free) and
        warms them through the backend, so the pool's capacity recovers
        without touching in-flight state.  Quarantined DPUs stay
        allocated — faulty hardware does not return to the free list.
        """
        entry = self._entry(model)
        doomed = {
            d for d in dpu_ids
            if any(m.dpu_id == d for m in entry.members)
        }
        if not doomed:
            return 0
        entry.members = [m for m in entry.members if m.dpu_id not in doomed]
        entry.quarantined.update(doomed)
        _M_POOL_QUARANTINED.labels(model=model).inc(len(doomed))
        if self.heal:
            try:
                fresh = self.system.allocate(len(doomed))
            except AllocationError:
                fresh = None
            if fresh is not None:
                entry.backend.warm(fresh)
                entry.sets.append(fresh)
                entry.members.extend(fresh.dpus)
                _M_POOL_HEALED.labels(model=model).inc(len(fresh.dpus))
        _M_POOL_ACTIVE.labels(model=model).set(len(entry.members))
        return len(doomed)

    def shutdown(self) -> None:
        """Free every allocated set; the pool refuses further leases."""
        if self._closed:
            return
        self._closed = True
        for model, entry in self._entries.items():
            for dpu_set in entry.sets:
                self.system.free(dpu_set)
            entry.members = []
            _M_POOL_ACTIVE.labels(model=model).set(0)
