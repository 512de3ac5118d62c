"""repro.serve — online inference serving over the simulated PIM system.

The subsystem turns the repo's offline runners into an online service:
bounded per-model request queues with explicit backpressure, a dynamic
batcher (flush on size, delay, or deadline margin), and a warm
:class:`DpuPool` that leases preloaded DPU sets, routing eBNN batches
through the multi-image-per-DPU mapping and YOLO requests through the
multi-DPU-per-image GEMM sharding — shrinking and healing around
fault-isolated DPUs.  Everything runs on the simulated clock, so served
workloads are deterministic end to end.
"""

from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    LoadSpec,
    default_payloads,
    generate_load,
)
from repro.serve.pool import (
    BatchExecution,
    DpuPool,
    EbnnBackend,
    ModelBackend,
    YoloBackend,
)
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    RejectReason,
)
from repro.serve.server import InferenceServer, ServeResult, run_offline

__all__ = [
    "ARRIVAL_PROCESSES",
    "BatchExecution",
    "BatchPolicy",
    "DpuPool",
    "DynamicBatcher",
    "EbnnBackend",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
    "LoadSpec",
    "ModelBackend",
    "RejectReason",
    "ServeResult",
    "YoloBackend",
    "default_payloads",
    "generate_load",
    "run_offline",
]
