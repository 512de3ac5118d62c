"""DPU profiling facilities.

Models the two instruments the thesis uses:

* the ``perfcounter_config()`` / ``perfcounter_get()`` cycle bracket
  (Fig. 3.1), including the overhead the bracket itself adds to a
  measurement, and
* the ``dpu-profiling`` style subroutine occurrence profile that reports,
  per compiler-rt subroutine, how many times it was entered (``#occ``,
  Fig. 3.2) — the instrument the LUT transformation's Fig. 4.3 comparison
  is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dpu import costs
from repro.errors import DpuError


class PerfCounter:
    """The DPU's cycle counter, read through the perfcounter API.

    ``config()`` zeroes the counter; ``get()`` returns elapsed cycles.  The
    measured value includes :data:`repro.dpu.costs.PROFILING_OVERHEAD_CYCLES`
    just as the physical bracket does, so simulated Table 3.1 measurements
    are directly comparable to the thesis's numbers.
    """

    def __init__(self) -> None:
        self._origin: float | None = None

    def config(self, now_cycles: float) -> None:
        """Start a measurement at the current simulated cycle."""
        self._origin = now_cycles

    def get(self, now_cycles: float) -> int:
        """Elapsed cycles since ``config``, including bracket overhead."""
        if self._origin is None:
            raise DpuError("perfcounter_get() before perfcounter_config()")
        elapsed = now_cycles - self._origin
        return int(round(elapsed)) + costs.PROFILING_OVERHEAD_CYCLES


@dataclass
class SubroutineRecord:
    """Aggregate statistics for one runtime subroutine."""

    name: str
    occurrences: int = 0
    instructions: int = 0

    def cycles_single_tasklet(self) -> int:
        """Cycles attributable to this subroutine with one tasklet resident."""
        return self.instructions * costs.PIPELINE_DEPTH


@dataclass
class SubroutineProfile:
    """Occurrence profile of runtime subroutine calls (Fig. 3.2 / 4.3)."""

    records: dict[str, SubroutineRecord] = field(default_factory=dict)

    def record(self, name: str, instructions: int, count: int = 1) -> None:
        """Record ``count`` entries into subroutine ``name``."""
        if count < 0:
            raise DpuError(f"negative occurrence count: {count}")
        entry = self.records.get(name)
        if entry is None:
            entry = SubroutineRecord(name)
            self.records[name] = entry
        entry.occurrences += count
        entry.instructions += instructions * count

    def copy(self) -> "SubroutineProfile":
        """An equal profile that shares no record with this one."""
        return SubroutineProfile({
            name: SubroutineRecord(name, r.occurrences, r.instructions)
            for name, r in self.records.items()
        })

    def occurrences(self, name: str) -> int:
        """``#occ`` for one subroutine (0 if never called)."""
        entry = self.records.get(name)
        return entry.occurrences if entry else 0

    def total_occurrences(self) -> int:
        return sum(r.occurrences for r in self.records.values())

    def float_subroutine_names(self) -> list[str]:
        """Names of called floating-point subroutines (the ``sf`` family)."""
        return sorted(
            name for name in self.records
            if "sf" in name and self.records[name].occurrences > 0
        )

    def distinct_subroutines(self) -> int:
        """How many distinct subroutines were entered at least once."""
        return sum(1 for r in self.records.values() if r.occurrences > 0)

    def merged_with(self, other: "SubroutineProfile") -> "SubroutineProfile":
        """Combine two profiles (e.g. across tasklets or DPUs)."""
        merged = SubroutineProfile()
        for profile in (self, other):
            for record in profile.records.values():
                merged.record(record.name, 0, record.occurrences)
                merged.records[record.name].instructions += record.instructions
        return merged

    def as_rows(self) -> list[tuple[str, int]]:
        """(name, #occ) rows sorted by descending occurrence count."""
        return sorted(
            ((r.name, r.occurrences) for r in self.records.values() if r.occurrences),
            key=lambda row: (-row[1], row[0]),
        )

    def clear(self) -> None:
        self.records.clear()
