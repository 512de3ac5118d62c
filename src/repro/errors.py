"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DpuError(ReproError):
    """Base class for errors raised by the DPU simulator."""


class DpuMemoryError(DpuError):
    """Out-of-bounds, misaligned, or oversized DPU memory access."""


class DpuAlignmentError(DpuMemoryError):
    """An access or transfer violated an alignment constraint."""


class DpuFaultError(DpuError):
    """The DPU program performed an illegal operation (bad opcode, trap)."""


class DpuLimitError(DpuError):
    """A hardware limit was exceeded (tasklets, WRAM stack, IRAM size)."""


class DpuHangError(DpuError):
    """The DPU exceeded its straggler deadline (hung past the cycle budget)."""


class AssemblerError(DpuError):
    """The DPU assembler rejected a source program."""


class HostError(ReproError):
    """Base class for errors raised by the host runtime."""


class AllocationError(HostError):
    """The host asked for more DPUs (or ranks) than the system provides."""


class TransferError(HostError):
    """A host<->DPU transfer violated size, alignment, or symbol rules."""


class SymbolError(TransferError):
    """A transfer referenced a symbol the loaded DPU program does not define."""


class LaunchError(HostError):
    """A DPU launch failed (no program loaded, bad tasklet count, fault)."""


class DegradedLaunchError(LaunchError):
    """A launch ended with failed DPUs, so its results are incomplete.

    ``failed_dpu_ids`` names the DPUs whose results are missing;
    ``reports`` holds the launch reports of the work done up to and
    including the failed launch, so callers can still account its time.
    """

    def __init__(self, message: str, failed_dpu_ids, reports=()) -> None:
        super().__init__(message)
        self.failed_dpu_ids = set(failed_dpu_ids)
        self.reports = list(reports)


class ModelError(ReproError):
    """Invalid parameters passed to the analytical PIM performance model."""


class WorkloadError(ReproError):
    """Invalid or unknown workload definition (layer table, op counts)."""


class QuantizationError(ReproError):
    """Invalid quantization parameters (bits, scale, ranges)."""


class MappingError(ReproError):
    """A CNN-to-DPU mapping scheme received an unmappable configuration."""


class ServeError(ReproError):
    """The online serving layer was misconfigured or misused."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or an unknown id requested."""
