"""Scheduling elliptic-curve point operations onto one ModSRAM macro.

§5.2 of the paper sizes the 64-row array so that "operands of a point
addition operation" stay resident while its several modular multiplications
execute, and argues that LUT reuse across those multiplications is what makes
the in-memory approach pay off.  This module makes that argument executable:
it takes the multiplication sequence of a Jacobian point operation, assigns
every live value to an operand word line, decides for each multiplication
whether the resident radix-4 LUT can be reused (same multiplicand as the
previous multiplication) and produces a cycle/row budget for the whole point
operation — the quantity the ECC examples project end-to-end latency from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MemoryMapError
from repro.modsram.analytical import AnalyticalCostModel
from repro.modsram.config import ModSRAMConfig, PAPER_CONFIG
from repro.modsram.memory_map import MemoryMap

__all__ = [
    "ScheduledMultiplication",
    "PointOperationSchedule",
    "PointOperationScheduler",
    "MIXED_ADDITION_SEQUENCE",
    "DOUBLING_SEQUENCE",
]

#: Multiplication sequence of a mixed Jacobian addition (8M + 3S for a = 0
#: curves): each entry is ``(product, multiplier, multiplicand)`` over the
#: named live values of the formula.
MIXED_ADDITION_SEQUENCE: Tuple[Tuple[str, str, str], ...] = (
    ("z1z1", "z1", "z1"),
    ("u2", "x2", "z1z1"),
    ("t0", "y2", "z1z1"),
    ("s2", "t0", "z1"),
    ("hh", "h", "h"),
    ("hhh", "hh", "h"),
    ("v", "x1", "hh"),
    ("rr", "r", "r"),
    ("t1", "r", "v_minus_x3"),
    ("t2", "y1", "hhh"),
    ("z3", "z1", "h"),
)

#: Multiplication sequence of a Jacobian doubling (4M + 4S for a = 0 curves).
DOUBLING_SEQUENCE: Tuple[Tuple[str, str, str], ...] = (
    ("yy", "y1", "y1"),
    ("s", "x1", "yy"),
    ("xx", "x1", "x1"),
    ("mm", "m", "m"),
    ("yyyy", "yy", "yy"),
    ("t0", "m", "s_minus_x3"),
    ("z3", "y1", "z1"),
    ("xx3", "xx", "three"),
)


@dataclass(frozen=True)
class ScheduledMultiplication:
    """One modular multiplication placed on the macro."""

    index: int
    product: str
    multiplier: str
    multiplicand: str
    multiplier_row: int
    multiplicand_row: int
    product_row: int
    lut_reused: bool
    iteration_cycles: int
    precompute_cycles: int

    @property
    def total_cycles(self) -> int:
        """Cycles charged to this multiplication (loop + LUT fill)."""
        return self.iteration_cycles + self.precompute_cycles


@dataclass(frozen=True)
class PointOperationSchedule:
    """The complete schedule of one point operation on one macro."""

    operation: str
    multiplications: Tuple[ScheduledMultiplication, ...]
    operand_rows_used: int
    lut_rows_used: int

    @property
    def multiplication_count(self) -> int:
        """Number of modular multiplications in the operation."""
        return len(self.multiplications)

    @property
    def iteration_cycles(self) -> int:
        """Main-loop cycles summed over every multiplication."""
        return sum(entry.iteration_cycles for entry in self.multiplications)

    @property
    def precompute_cycles(self) -> int:
        """LUT-fill cycles actually paid (reuse removes most of them)."""
        return sum(entry.precompute_cycles for entry in self.multiplications)

    @property
    def total_cycles(self) -> int:
        """Every cycle of the point operation's multiplications."""
        return self.iteration_cycles + self.precompute_cycles

    @property
    def lut_reuse_rate(self) -> float:
        """Fraction of multiplications that reused the resident radix-4 LUT."""
        if not self.multiplications:
            return 0.0
        reused = sum(1 for entry in self.multiplications if entry.lut_reused)
        return reused / len(self.multiplications)

    def latency_us(self, frequency_mhz: float) -> float:
        """Wall-clock latency at a given clock."""
        return self.total_cycles / frequency_mhz

    def as_dict(self) -> Dict[str, object]:
        """Summary for reports."""
        return {
            "operation": self.operation,
            "multiplications": self.multiplication_count,
            "iteration_cycles": self.iteration_cycles,
            "precompute_cycles": self.precompute_cycles,
            "total_cycles": self.total_cycles,
            "operand_rows_used": self.operand_rows_used,
            "lut_rows_used": self.lut_rows_used,
            "lut_reuse_rate": self.lut_reuse_rate,
        }


class PointOperationScheduler:
    """Places the multiplications of a point operation onto one macro.

    Cycles come from the analytical cost algebra: every multiplication
    pays the main loop, and one with a new multiplicand also pays the
    radix-4 LUT refill.
    """

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or PAPER_CONFIG
        self.memory_map = MemoryMap(self.config)
        self.cost_model = AnalyticalCostModel(self.config)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        sequence: Sequence[Tuple[str, str, str]],
        operation: str = "point-operation",
        preloaded: Sequence[str] = ("x1", "y1", "z1", "x2", "y2", "modulus"),
    ) -> PointOperationSchedule:
        """Assign rows and LUT reuse for a multiplication sequence.

        ``preloaded`` names the values already resident in the operand region
        before the operation starts (the input point coordinates and the
        modulus).  Every product is written to a fresh operand row; the
        overflow LUT depends only on the modulus and is never refilled.
        """
        row_of: Dict[str, int] = {}
        next_slot = 0

        def assign(name: str) -> int:
            nonlocal next_slot
            if name in row_of:
                return row_of[name]
            if next_slot >= len(self.memory_map.operand_region):
                raise MemoryMapError(
                    f"point operation needs more than the "
                    f"{len(self.memory_map.operand_region)} operand rows the "
                    "macro provides"
                )
            row_of[name] = self.memory_map.operand_row(next_slot)
            next_slot += 1
            return row_of[name]

        for name in preloaded:
            assign(name)

        iteration_cycles = self.cost_model.iteration_cycles()
        refill_cycles = self.cost_model.radix4_refill_cycles()
        scheduled: List[ScheduledMultiplication] = []
        resident_multiplicand: Optional[str] = None
        for index, (product, multiplier, multiplicand) in enumerate(sequence):
            multiplier_row = assign(multiplier)
            multiplicand_row = assign(multiplicand)
            product_row = assign(product)
            reused = multiplicand == resident_multiplicand
            precompute = 0 if reused else refill_cycles
            scheduled.append(
                ScheduledMultiplication(
                    index=index,
                    product=product,
                    multiplier=multiplier,
                    multiplicand=multiplicand,
                    multiplier_row=multiplier_row,
                    multiplicand_row=multiplicand_row,
                    product_row=product_row,
                    lut_reused=reused,
                    iteration_cycles=iteration_cycles,
                    precompute_cycles=precompute,
                )
            )
            resident_multiplicand = multiplicand

        return PointOperationSchedule(
            operation=operation,
            multiplications=tuple(scheduled),
            operand_rows_used=next_slot,
            lut_rows_used=self.config.lut_rows,
        )

    # ------------------------------------------------------------------ #
    # canned operations
    # ------------------------------------------------------------------ #
    def schedule_mixed_addition(self) -> PointOperationSchedule:
        """Schedule of one mixed Jacobian point addition (8M + 3S)."""
        return self.schedule(MIXED_ADDITION_SEQUENCE, operation="mixed-addition")

    def schedule_doubling(self) -> PointOperationSchedule:
        """Schedule of one Jacobian point doubling (4M + 4S)."""
        return self.schedule(
            DOUBLING_SEQUENCE,
            operation="doubling",
            preloaded=("x1", "y1", "z1", "modulus", "three"),
        )

    def scalar_multiplication_cycles(self, scalar_bits: int) -> int:
        """Projected cycles of a double-and-add scalar multiplication.

        ``scalar_bits`` doublings plus (on average) half as many additions,
        each using the canned schedules above.
        """
        if scalar_bits <= 0:
            raise MemoryMapError(f"scalar_bits must be positive, got {scalar_bits}")
        doubling = self.schedule_doubling().total_cycles
        addition = self.schedule_mixed_addition().total_cycles
        return scalar_bits * doubling + (scalar_bits // 2) * addition
