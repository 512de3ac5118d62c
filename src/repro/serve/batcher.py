"""Admission control and dynamic batching for one model class.

The batcher is the host-side dispatch lever the PIM measurement studies
(Gómez-Luna et al.; Oliveira et al.) identify as dominant for real-PIM
inference throughput: it trades a little queueing delay for bigger
batches, which the eBNN mapping turns into multi-image-per-DPU launches
and the YOLO mapping amortizes over per-layer weight broadcasts.

Flush rules (evaluated on the simulated clock):

* **size** — the queue reached ``max_batch``; flush immediately,
* **delay** — the oldest queued request has waited ``max_delay_s``,
* **deadline** — some queued request's deadline, minus the current
  service-time estimate, is about to pass; flushing later would turn a
  servable request into a deadline rejection.

Admission is a bounded queue: a request arriving while ``queue_cap``
requests wait is rejected with :data:`RejectReason.QUEUE_FULL` — explicit
backpressure, never a silent drop.  Requests re-enqueued by the server's
fault-retry path bypass the cap (they were already admitted once).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro import telemetry
from repro.errors import ServeError
from repro.serve.request import InferenceRequest, RejectReason

_M_QUEUE_DEPTH = telemetry.GLOBAL_METRICS.gauge(
    "serve.queue_depth", "requests currently queued, per model class"
)


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of one model class's queue + batcher."""

    max_batch: int = 16
    max_delay_s: float = 2e-3
    queue_cap: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_s < 0:
            raise ServeError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        if self.queue_cap < 1:
            raise ServeError(f"queue_cap must be >= 1, got {self.queue_cap}")
        if self.queue_cap < self.max_batch:
            raise ServeError(
                f"queue_cap ({self.queue_cap}) must be >= max_batch "
                f"({self.max_batch}); a full batch could never assemble"
            )


class DynamicBatcher:
    """Bounded FIFO + flush scheduling for one model class."""

    def __init__(self, model: str, policy: BatchPolicy) -> None:
        self.model = model
        self.policy = policy
        self._queue: deque[InferenceRequest] = deque()
        self._depth_gauge = _M_QUEUE_DEPTH.labels(model=model)
        #: Deterministic EWMA of recent batch service times, the estimate
        #: the deadline-aware flush rule subtracts from each deadline.
        self.service_estimate_s = 0.0

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def offer(
        self, request: InferenceRequest, *, force: bool = False
    ) -> RejectReason | None:
        """Admit ``request``; returns the reject reason when refused.

        ``force`` bypasses the capacity bound — used only for requests
        re-enqueued after a DPU fault, which were already admitted once
        and must not be silently squeezed out by newer arrivals.
        """
        if not force and len(self._queue) >= self.policy.queue_cap:
            return RejectReason.QUEUE_FULL
        self._queue.append(request)
        self._depth_gauge.set(len(self._queue))
        return None

    def requeue(self, request: InferenceRequest) -> None:
        """Put a fault-retried request at the head of the line."""
        self._queue.appendleft(request)
        self._depth_gauge.set(len(self._queue))

    # ------------------------------------------------------------------ #
    # flush scheduling
    # ------------------------------------------------------------------ #

    def flush_at(self, now: float) -> float:
        """Earliest simulated time this queue must flush (inf if empty).

        A full batch is due immediately (returns ``now``); otherwise the
        delay rule and the deadline rule each propose a time and the
        earliest wins, floored at ``now`` so an overdue queue does not
        drag the clock backwards.
        """
        if not self._queue:
            return math.inf
        if len(self._queue) >= self.policy.max_batch:
            return now
        due = min(r.arrival_s for r in self._queue) + self.policy.max_delay_s
        for request in self._queue:
            if request.deadline_s is not None:
                due = min(
                    due, request.deadline_s - self.service_estimate_s
                )
        return max(now, due)

    def pop_batch(self, now: float) -> tuple[
        list[InferenceRequest], list[InferenceRequest]
    ]:
        """Take up to ``max_batch`` requests; split off the already-dead.

        Returns ``(batch, expired)``: requests whose deadline passed
        while they queued are not worth DPU time and come back separately
        so the server can reject them with
        :data:`RejectReason.DEADLINE_EXCEEDED`.
        """
        batch: list[InferenceRequest] = []
        expired: list[InferenceRequest] = []
        while self._queue and len(batch) < self.policy.max_batch:
            request = self._queue.popleft()
            (expired if request.expired(now) else batch).append(request)
        self._depth_gauge.set(len(self._queue))
        return batch, expired

    def drain(self) -> list[InferenceRequest]:
        """Remove and return everything still queued (shutdown path)."""
        remaining = list(self._queue)
        self._queue.clear()
        self._depth_gauge.set(0)
        return remaining

    def note_service(self, seconds: float) -> None:
        """Fold one batch's service time into the deadline estimate."""
        if self.service_estimate_s == 0.0:
            self.service_estimate_s = seconds
        else:
            self.service_estimate_s = (
                0.5 * self.service_estimate_s + 0.5 * seconds
            )
