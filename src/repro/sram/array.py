"""Behavioural model of the ModSRAM 8T SRAM array.

The array is the in-memory-computing half of ModSRAM: a 64 × 256 tile of 8T
cells whose read port can activate up to three read word lines at once.
When several rows are activated, each read bitline discharges in proportion
to the number of selected cells that store a one; the logic-SA module
(:mod:`repro.sram.sense_amp`) then resolves that analogue level into the
XOR3 and MAJ outputs that implement carry-save addition.

The model is bit-accurate and deliberately structural: rows are written and
read through the same narrow interface the hardware has (full-row writes via
the write port, single- or multi-row reads via the read port), every access
is counted, and illegal access patterns (activating more rows than the cell
can tolerate, mixing a 6T cell with multi-row reads) are detected.

An access returns the activated rows' words.  The logic-SA resolves a
noiseless access on those words; the per-column counts (each bitline's
discharge level) are derived only when its per-column path asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReadDisturbError, SramAccessError
from repro.sram.cell import EightTransistorCell, SramCell
from repro.sram.stats import ArrayStats

__all__ = ["BitlineReadout", "SramArray"]


@dataclass(frozen=True)
class BitlineReadout:
    """Result of one (possibly multi-row) read-port access.

    Attributes
    ----------
    activated_rows:
        The row indices whose read word lines were raised.
    words:
        The word stored in each activated row, in activation order.
    columns:
        Width of the access in bits.
    """

    activated_rows: Tuple[int, ...]
    words: Tuple[int, ...]
    columns: int

    @property
    def column_counts(self) -> Tuple[int, ...]:
        """Per column, the number of activated cells storing a one.

        The digital view of each read-bitline discharge level, derived on call.
        """
        words = self.words
        return tuple(
            sum((word >> column) & 1 for word in words)
            for column in range(self.columns)
        )

    def exact_value(self) -> int:
        """Single-row reads only: the stored word."""
        if len(self.activated_rows) != 1:
            raise SramAccessError(
                "exact_value() is only defined for single-row reads; "
                f"{len(self.activated_rows)} rows were activated"
            )
        return self.words[0]


class SramArray:
    """A rows × cols SRAM tile with separate read and write ports."""

    def __init__(
        self,
        rows: int,
        cols: int,
        cell: SramCell = EightTransistorCell,
        name: str = "sram",
        strict_disturb: bool = True,
        stats: Optional[ArrayStats] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise SramAccessError(
                f"array dimensions must be positive, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.cell = cell
        self.name = name
        #: When True, a disturb-prone access raises; when False it is only
        #: recorded (useful for "what would a 6T design have to do" studies).
        self.strict_disturb = strict_disturb
        #: Access accounting; pass a shared :class:`ArrayStats` to aggregate
        #: several arrays (e.g. every macro of a chip) into one profile.
        self.stats = stats if stats is not None else ArrayStats()
        self._data: List[int] = [0] * rows

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise SramAccessError(
                f"row {row} out of range for {self.rows}-row array {self.name!r}"
            )

    # ------------------------------------------------------------------ #
    # write port
    # ------------------------------------------------------------------ #
    def write_row(self, row: int, value: int) -> None:
        """Write a full row through the write port."""
        self._check_row(row)
        if value < 0:
            raise SramAccessError(f"row value must be non-negative, got {value}")
        if value >> self.cols:
            raise SramAccessError(
                f"value {value:#x} does not fit in a {self.cols}-column row"
            )
        self._data[row] = value
        self.stats.record_write(self.cols)

    # ------------------------------------------------------------------ #
    # read port
    # ------------------------------------------------------------------ #
    def activate_rows(self, rows: Sequence[int]) -> BitlineReadout:
        """Activate one or more read word lines simultaneously.

        Returns the activated rows' words, from which the bitline discharge
        levels follow (:attr:`BitlineReadout.column_counts`).  Raises
        :class:`ReadDisturbError` if the access pattern is unsafe for the
        configured cell and the array is in strict mode.
        """
        if not rows:
            raise SramAccessError("at least one row must be activated")
        unique = tuple(dict.fromkeys(rows))
        if len(unique) != len(rows):
            raise SramAccessError(f"duplicate rows in activation set: {rows}")
        for row in unique:
            self._check_row(row)

        if self.cell.disturb_risk(len(unique)):
            self.stats.read_disturb_events += 1
            if self.strict_disturb:
                raise ReadDisturbError(
                    f"activating {len(unique)} rows on a {self.cell.name} array "
                    f"exceeds the safe limit of {self.cell.max_simultaneous_reads}"
                )

        self.stats.record_read(len(unique), compute=len(unique) > 1)
        return BitlineReadout(
            activated_rows=unique,
            words=tuple(self._data[row] for row in unique),
            columns=self.cols,
        )

    def __repr__(self) -> str:
        return (
            f"SramArray(name={self.name!r}, rows={self.rows}, cols={self.cols}, "
            f"cell={self.cell.name})"
        )
