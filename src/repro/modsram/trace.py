"""Cycle-by-cycle execution trace.

The paper illustrates the dataflow with a 5-bit walk-through (Figure 3).
A traced accelerator records a :class:`CycleEvent` for every clock cycle so
the same walk-through can be regenerated for any operand size, and so the test
suite can check structural properties of the schedule (every iteration
activates exactly three rows per compute access, the sum row is written
before the carry row, the last carry write-back is elided, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Phase", "CycleEvent", "ExecutionTrace"]


class Phase(str, Enum):
    """What the macro is doing during a given cycle."""

    LOAD_MULTIPLIER = "load-multiplier"
    PRECOMPUTE = "precompute"
    IMC_RADIX4 = "imc-radix4"
    WRITEBACK_SUM = "writeback-sum"
    WRITEBACK_CARRY = "writeback-carry"
    IMC_OVERFLOW = "imc-overflow"
    FINALIZE = "finalize"

    def is_compute_access(self) -> bool:
        """Whether this cycle performs a multi-row logic-SA access."""
        return self in (Phase.IMC_RADIX4, Phase.IMC_OVERFLOW)


@dataclass(frozen=True)
class CycleEvent:
    """One clock cycle of the ModSRAM schedule."""

    cycle: int
    phase: Phase
    iteration: Optional[int] = None
    rows_read: Tuple[int, ...] = ()
    rows_written: Tuple[int, ...] = ()
    digit: Optional[int] = None
    overflow_index: Optional[int] = None
    note: str = ""

    def describe(self) -> str:
        """Human-readable single-line description."""
        parts = [f"cycle {self.cycle:5d}", f"{self.phase.value:16s}"]
        if self.iteration is not None:
            parts.append(f"iter {self.iteration:4d}")
        if self.rows_read:
            parts.append(f"read WL{list(self.rows_read)}")
        if self.rows_written:
            parts.append(f"write WL{list(self.rows_written)}")
        if self.digit is not None:
            parts.append(f"digit {self.digit:+d}")
        if self.overflow_index is not None:
            parts.append(f"ovf {self.overflow_index}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


class ExecutionTrace:
    """Ordered collection of cycle events for one multiplication."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[CycleEvent] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, event: CycleEvent) -> None:
        """Append one event (no-op when tracing is disabled)."""
        if self.enabled:
            self._events.append(event)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[CycleEvent]:
        """All recorded events, in cycle order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def phase_histogram(self) -> Dict[str, int]:
        """Cycle count per phase."""
        histogram: Dict[str, int] = {}
        for event in self._events:
            histogram[event.phase.value] = histogram.get(event.phase.value, 0) + 1
        return dict(sorted(histogram.items()))

    def compute_access_count(self) -> int:
        """Number of multi-row logic-SA accesses."""
        return sum(1 for event in self._events if event.phase.is_compute_access())

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render(
        self,
        limit: Optional[int] = None,
        phases: Optional[Sequence[Phase]] = None,
    ) -> str:
        """Multi-line text rendering (the Figure 3 walk-through generator)."""
        events: Iterable[CycleEvent] = self._events
        if phases is not None:
            allowed = set(phases)
            events = [event for event in events if event.phase in allowed]
        lines = [event.describe() for event in events]
        if limit is not None and len(lines) > limit:
            hidden = len(lines) - limit
            lines = lines[:limit] + [f"... ({hidden} more cycles)"]
        return "\n".join(lines)
