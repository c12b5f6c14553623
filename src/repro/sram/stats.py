"""Access statistics collected by the SRAM array model.

The statistics mirror the quantities the paper's evaluation reasons about:
how many word lines are activated (each activation is a precharge + sense
cycle), how many of those are multi-row compute accesses versus plain reads,
and how many write-backs occur.  The energy model consumes these directly.

:class:`ArrayStats` is the *shared accounting currency* of the layered
simulation core: the behavioural array fills one in while simulating and
the analytical tier synthesises one in closed form — so the energy model
and the reports never need to know which fidelity tier produced the
numbers.  :meth:`accumulate` supports per-multiplication charging
(``FastHost``) and multi-macro aggregation (``Chip.stats()``) without
coupling callers to the array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ArrayStats"]


@dataclass
class ArrayStats:
    """Counters for one :class:`repro.sram.array.SramArray` instance."""

    row_writes: int = 0
    row_reads: int = 0
    compute_reads: int = 0
    rows_activated: int = 0
    precharges: int = 0
    bits_written: int = 0
    read_disturb_events: int = 0

    def record_write(self, bits: int) -> None:
        """Account for one full-row write of ``bits`` columns."""
        self.row_writes += 1
        self.bits_written += bits

    def record_read(self, activated_rows: int, compute: bool) -> None:
        """Account for one read access activating ``activated_rows`` rows."""
        self.row_reads += 1
        if compute:
            self.compute_reads += 1
        self.rows_activated += activated_rows
        self.precharges += 1

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary (stable key order)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def accumulate(self, other: "ArrayStats") -> None:
        """Add another profile's counters to these, in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
