"""Radix-8 Booth-encoded interleaved modular multiplication.

The paper's background section notes that radix-8 Booth encoding is the
natural extension of the radix-4 scheme ("four bits are processed with one
bit overlapping. As a result, the total iterations are cut down by
one-third") and cites Javeed & Wang's FPGA multipliers, which implement both.
A radix-8 variant needs a larger per-digit LUT — nine possible digits, of
which the ±3 multiples cannot be produced by shifting alone — so it trades
LUT word lines for iterations.  Implementing it lets that trade-off be
measured against the radix-4 design the paper chose.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.core.booth import booth_digits_radix8
from repro.errors import ModulusError, OperandRangeError

__all__ = ["Radix8InterleavedMultiplier", "build_radix8_lut"]


def build_radix8_lut(multiplicand: int, modulus: int) -> Dict[int, int]:
    """Per-digit addends ``digit * B mod p`` for the radix-8 digit set.

    Nine entries (digits −4…+4); five of them (±2, ±3, ±4) require modular
    computation, versus three for the radix-4 LUT of Table 1b.
    """
    if modulus <= 2:
        raise ModulusError(f"modulus must be greater than 2, got {modulus}")
    if not 0 <= multiplicand < modulus:
        raise OperandRangeError(
            f"multiplicand must satisfy 0 <= B < p, got B={multiplicand}, p={modulus}"
        )
    return {digit: (digit * multiplicand) % modulus for digit in range(-4, 5)}


@register_multiplier
class Radix8InterleavedMultiplier(ModularMultiplier):
    """Radix-8 Booth-encoded interleaved multiplication (background, §2.1)."""

    name = "radix8-interleaved"
    description = (
        "Radix-8 Booth-encoded interleaved multiplication with a nine-entry "
        "digit LUT (one third fewer iterations than radix-4)."
    )
    direct_form = True

    #: Steps per iteration in the analytic model: shift-by-three, LUT-based
    #: reduction of the 8x accumulator, digit addition, conditional subtract.
    CYCLES_PER_ITERATION = 5

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        bitwidth = max(modulus.bit_length(), 3)
        lut = build_radix8_lut(b, modulus)
        self.stats.precomputations += 1

        accumulator = 0
        for digit in booth_digits_radix8(a, bitwidth):
            self.stats.iterations += 1

            accumulator <<= 3
            self.stats.shifts += 1

            # 8C < 8p: the reduction needs up to seven subtractions, folded
            # into one look-up in a hardware mapping (as for Algorithm 2).
            self.stats.lut_lookups += 1
            while accumulator >= modulus:
                accumulator -= modulus
                self.stats.subtractions += 1

            addend = lut[digit]
            self.stats.lut_lookups += 1
            if addend:
                accumulator += addend
                self.stats.full_additions += 1

            self.stats.comparisons += 1
            if accumulator >= modulus:
                accumulator -= modulus
                self.stats.subtractions += 1
        return accumulator

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Analytic cycle count: one third fewer iterations than radix-4."""
        iterations = bitwidth // 3 + 1
        return self.CYCLES_PER_ITERATION * iterations

    def lut_rows(self) -> int:
        """Word lines a radix-8 digit LUT would occupy (9 versus 5)."""
        return 9
