"""Radix-4 Booth-encoded interleaved modular multiplication (Algorithm 2).

Two multiplier bits are consumed per iteration via the radix-4 Booth encoder
(Table 1a), halving the iteration count of Algorithm 1.  The per-digit
addend is taken from the precomputed LUT of Table 1b, so the only remaining
full-width work per iteration is the quadrupling, its reduction, one
addition and one conditional subtraction — still all carry-propagating,
which is the weakness R4CSA-LUT then removes.

Note: line 8 of the paper's Algorithm 2 reads ``C <- C + E x p``; this is a
typo for ``E x B`` (Table 1b stores multiples of the multiplicand ``B``).
The implementation follows Table 1b.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.core.booth import booth_digits_radix4
from repro.core.complexity import cycles_radix4_interleaved
from repro.core.luts import build_radix4_lut

__all__ = ["Radix4InterleavedMultiplier"]


@register_multiplier
class Radix4InterleavedMultiplier(ModularMultiplier):
    """Algorithm 2: radix-4 Booth-encoded interleaved multiplication."""

    name = "radix4-interleaved"
    description = (
        "Radix-4 Booth-encoded interleaved multiplication with a "
        "precomputed digit LUT (Algorithm 2)."
    )
    direct_form = True

    def __init__(self, full_range: bool = True) -> None:
        super().__init__()
        self.full_range = full_range

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        bitwidth = max(modulus.bit_length(), 2)
        lut = build_radix4_lut(b, modulus)
        self.stats.precomputations += 1

        digits = booth_digits_radix4(a, bitwidth, full_range=self.full_range)
        accumulator = 0
        for digit in digits:
            self.stats.iterations += 1

            accumulator <<= 2
            self.stats.shifts += 1

            # Reduction of the quadrupled accumulator.  4C < 4p, so at most
            # three subtractions; the paper folds this into a single LUT
            # access ("C <- LUT(C)"), which we count as one look-up.
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
        """Analytic cycle count: half the iterations of Algorithm 1."""
        return cycles_radix4_interleaved(bitwidth)
