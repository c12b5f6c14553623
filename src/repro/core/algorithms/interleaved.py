"""Interleaved modular multiplication (Algorithm 1 of the paper).

Blakely's classic shift-and-add multiplier with a reduction step folded into
every iteration.  It is the ancestor of every algorithm in this package: one
multiplier bit is consumed per iteration, so the iteration count equals the
operand bitwidth, and each iteration performs a doubling, up to two
comparisons/subtractions and one full-width addition (all with full carry
propagation — the costs R4CSA-LUT removes).
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.core.complexity import cycles_interleaved

__all__ = ["InterleavedMultiplier"]


@register_multiplier
class InterleavedMultiplier(ModularMultiplier):
    """Algorithm 1: bit-serial interleaved modular multiplication."""

    name = "interleaved"
    description = (
        "Blakely interleaved shift-and-add with per-iteration reduction "
        "(Algorithm 1)."
    )
    direct_form = True

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        bitwidth = max(a.bit_length(), 1)
        accumulator = 0
        for bit_index in range(bitwidth - 1, -1, -1):
            self.stats.iterations += 1

            accumulator <<= 1
            self.stats.shifts += 1

            self.stats.comparisons += 1
            if accumulator >= modulus:
                accumulator -= modulus
                self.stats.subtractions += 1

            if (a >> bit_index) & 1:
                accumulator += b
                self.stats.full_additions += 1

            self.stats.comparisons += 1
            if accumulator >= modulus:
                accumulator -= modulus
                self.stats.subtractions += 1
        return accumulator

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Analytic cycle count: one pass of the loop per multiplier bit."""
        return cycles_interleaved(bitwidth)
