"""Radix-2 carry-save interleaved modular multiplication.

This is the algorithm of Mazonka et al. (ICCAD 2022) that the paper cites as
its second inspiration: the classic interleaved loop, but with the
accumulator held in carry-save form and the post-shift reduction replaced by
a small look-up on the bit that overflows the register.  It consumes one
multiplier bit per iteration (no Booth encoding), so it needs twice the
iterations of R4CSA-LUT; having it in the library lets the benchmarks
separate the contribution of the radix-4 encoding from that of the
carry-save/LUT transformation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.core.carry_save import xor3_maj
from repro.core.complexity import cycles_csa_interleaved
from repro.core.luts import build_overflow_lut

__all__ = ["CsaInterleavedMultiplier"]


@register_multiplier
class CsaInterleavedMultiplier(ModularMultiplier):
    """Radix-2 interleaved multiplication with a carry-save accumulator."""

    name = "csa-interleaved"
    description = (
        "Interleaved multiplication with carry-save accumulation and an "
        "overflow LUT (Mazonka-style, radix-2)."
    )
    direct_form = True

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        bitwidth = max(modulus.bit_length(), 2)
        register_width = bitwidth + 1
        overflow_lut = build_overflow_lut(modulus, register_width, entry_count=16)
        self.stats.precomputations += 1

        mask = (1 << register_width) - 1
        sum_word = carry_word = pending = 0
        for bit_index in range(bitwidth - 1, -1, -1):
            # Doubling: shift both words left by one.
            sum_word <<= 1
            carry_word <<= 1
            shifted_out = (sum_word >> register_width) + (carry_word >> register_width)

            # Add the multiplicand when the multiplier bit is set; MAJ is
            # written back shifted left by one and its top bit escapes.
            addend = b if (a >> bit_index) & 1 else 0
            sum_word, carry_word = xor3_maj(addend, sum_word & mask, carry_word & mask)
            carry_word <<= 1

            # Fold overflow bits back in via the LUT.  The pending bit
            # escaped after the previous iteration's second CSA and has
            # aged by one shift position, hence weight 2.
            overflow_index = (
                shifted_out + (carry_word >> register_width) + 2 * pending
            )
            sum_word, carry_word = xor3_maj(
                overflow_lut[overflow_index], sum_word, carry_word & mask
            )
            carry_word <<= 1
            pending = carry_word >> register_width
            carry_word &= mask

        # Per iteration: two shifts, one look-up, two carry-save additions.
        self.stats.iterations += bitwidth
        self.stats.shifts += 2 * bitwidth
        self.stats.lut_lookups += bitwidth
        self.stats.carry_save_additions += 2 * bitwidth

        total = sum_word + carry_word + (pending << register_width)
        self.stats.full_additions += 1
        while total >= modulus:
            total -= modulus
            self.stats.subtractions += 1
        return total

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Analytic cycle count: one full iteration per multiplier bit."""
        return cycles_csa_interleaved(bitwidth)
