"""Row-level memory map of the ModSRAM array.

One modular multiplication touches three kinds of word lines (Figure 6 of
the paper):

* **operands** — the multiplier ``A``, multiplicand ``B`` and modulus ``p``,
  plus whatever additional operands the surrounding computation (e.g. an
  elliptic-curve point addition) wants resident;
* **intermediates** — the redundant accumulator, i.e. the ``sum`` and
  ``carry`` rows, the only values rewritten every iteration;
* **LUTs** — the 5-row radix-4 table (Table 1b) and the 8-row overflow
  table (Table 2), written once per ``(B, p)`` / ``p`` and reused across
  iterations and across multiplications.

The map places the LUTs and intermediates at the top of the array and
leaves the remaining rows (49 of 64 in the default configuration) as
operand storage, reproducing the utilisation picture of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.luts import RADIX4_DIGIT_ORDER
from repro.errors import MemoryMapError
from repro.modsram.config import (
    INTERMEDIATE_ROWS,
    MINIMUM_OPERAND_ROWS,
    OVERFLOW_LUT_ROWS,
    RADIX4_LUT_ROWS,
    ModSRAMConfig,
)

__all__ = ["MemoryMap", "MemoryUtilization"]


@dataclass(frozen=True)
class MemoryUtilization:
    """Row usage summary in the shape of Figure 6."""

    total_rows: int
    operand_rows_used: int
    operand_capacity: int
    intermediate_rows: int
    lut_rows: int

    @property
    def rows_used(self) -> int:
        """Rows occupied by live data during one multiplication."""
        return self.operand_rows_used + self.intermediate_rows + self.lut_rows

    @property
    def free_rows(self) -> int:
        """Rows still available for more operands."""
        return self.total_rows - self.rows_used

    def as_dict(self) -> Dict[str, int]:
        """Summary as a dictionary for the analysis layer."""
        return {
            "total_rows": self.total_rows,
            "operand_rows_used": self.operand_rows_used,
            "operand_capacity": self.operand_capacity,
            "intermediate_rows": self.intermediate_rows,
            "lut_rows": self.lut_rows,
            "rows_used": self.rows_used,
            "free_rows": self.free_rows,
        }


class MemoryMap:
    """Assignment of logical values to word lines for one macro."""

    def __init__(self, config: ModSRAMConfig) -> None:
        self.config = config
        rows = config.rows

        # Operand region occupies the bottom of the array.
        self.multiplier_row = 0
        self.multiplicand_row = 1
        self.modulus_row = 2
        self.operand_region = tuple(range(0, config.operand_capacity))

        # Intermediates and LUTs are packed at the top of the array.
        top = rows
        overflow_base = top - OVERFLOW_LUT_ROWS
        radix4_base = overflow_base - RADIX4_LUT_ROWS
        self.sum_row = radix4_base - 2
        self.carry_row = radix4_base - 1
        self._radix4_rows: Dict[int, int] = {
            digit: radix4_base + offset
            for offset, digit in enumerate(RADIX4_DIGIT_ORDER)
        }
        self._overflow_rows: Tuple[int, ...] = tuple(
            overflow_base + offset for offset in range(OVERFLOW_LUT_ROWS)
        )

        if self.sum_row < MINIMUM_OPERAND_ROWS:
            raise MemoryMapError(
                f"array with {rows} rows cannot hold operands, LUTs and "
                "intermediates simultaneously"
            )

    # ------------------------------------------------------------------ #
    # look-ups
    # ------------------------------------------------------------------ #
    def radix4_row(self, digit: int) -> int:
        """Word line holding ``digit * B mod p`` (Table 1b row)."""
        try:
            return self._radix4_rows[digit]
        except KeyError:
            raise MemoryMapError(
                f"no radix-4 LUT row for digit {digit}; valid digits: "
                f"{sorted(self._radix4_rows)}"
            ) from None

    def overflow_row(self, overflow: int) -> int:
        """Word line holding ``overflow * 2**(n+1) mod p`` (Table 2 row)."""
        if not 0 <= overflow < len(self._overflow_rows):
            raise MemoryMapError(
                f"overflow index {overflow} outside the {len(self._overflow_rows)}-row "
                "overflow LUT"
            )
        return self._overflow_rows[overflow]

    def operand_row(self, slot: int) -> int:
        """Word line of operand slot ``slot`` (0 = A, 1 = B, 2 = p, ...)."""
        if not 0 <= slot < len(self.operand_region):
            raise MemoryMapError(
                f"operand slot {slot} outside the {len(self.operand_region)}-row "
                "operand region"
            )
        return self.operand_region[slot]

    @property
    def overflow_rows(self) -> Tuple[int, ...]:
        """Word lines of the overflow LUT, in index order."""
        return self._overflow_rows

    @property
    def lut_rows(self) -> List[int]:
        """Every LUT word line (13 rows in the default configuration)."""
        return sorted(self._radix4_rows.values()) + list(self._overflow_rows)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def utilization(self, operand_rows_used: int = MINIMUM_OPERAND_ROWS) -> MemoryUtilization:
        """Row-usage summary for Figure 6.

        ``operand_rows_used`` defaults to the three rows one bare modular
        multiplication needs; an elliptic-curve point addition keeps more
        operands resident.
        """
        if not MINIMUM_OPERAND_ROWS <= operand_rows_used <= len(self.operand_region):
            raise MemoryMapError(
                f"operand_rows_used must be between {MINIMUM_OPERAND_ROWS} and "
                f"{len(self.operand_region)}, got {operand_rows_used}"
            )
        return MemoryUtilization(
            total_rows=self.config.rows,
            operand_rows_used=operand_rows_used,
            operand_capacity=len(self.operand_region),
            intermediate_rows=INTERMEDIATE_ROWS,
            lut_rows=len(self.lut_rows),
        )

    def describe(self) -> Dict[str, object]:
        """Full row assignment, for documentation and debugging."""
        return {
            "multiplier_row": self.multiplier_row,
            "multiplicand_row": self.multiplicand_row,
            "modulus_row": self.modulus_row,
            "operand_region": list(self.operand_region),
            "sum_row": self.sum_row,
            "carry_row": self.carry_row,
            "radix4_rows": dict(self._radix4_rows),
            "overflow_rows": list(self._overflow_rows),
        }
