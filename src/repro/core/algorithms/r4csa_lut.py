"""R4CSA-LUT: the paper's proposed algorithm (Algorithm 3).

Radix-4 Carry-Save-Addition interleaved modular multiplication with look-up
tables.  Compared with Algorithm 2 it keeps the accumulator in redundant
(sum, carry) form so the per-iteration additions become carry-*free* bitwise
XOR3/MAJ operations — exactly the operations the ModSRAM logic-SA module
computes inside the SRAM array — and it replaces the reduction of the
quadrupled accumulator with a second table look-up (Table 2): the bits that
overflow the ``n+1``-bit registers during the shift are folded back in by
adding the precomputed residue ``overflow * 2**(n+1) mod p``.

Each iteration therefore consists of two carry-save additions (one against
LUT-radix4, one against LUT-overflow) and two shifts; no carry ever
propagates until the single full addition after the final iteration.

Implementation notes:

* The paper's pseudocode overwrites ``sum`` before computing ``carry``; the
  hardware dataflow of Figure 3 produces XOR3 and MAJ from the same three
  word lines simultaneously, i.e. a standard carry-save adder, which is what
  this module implements.
* The carry word is one bit wider than ``n+1`` for one cycle (the MAJ output
  is shifted left); the escaped bit is captured and folded into the *next*
  iteration's overflow index with weight 4 (it is two shift positions older
  by the time it is consumed).  The overflow LUT is generated with 16
  entries so every reachable index is covered; its first eight rows are
  exactly the paper's Table 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.core.booth import booth_digits_radix4
from repro.core.carry_save import xor3_maj
from repro.core.complexity import cycles_r4csa_lut
from repro.core.luts import OverflowLut, Radix4Lut, build_overflow_lut, build_radix4_lut

__all__ = [
    "R4CSALutMultiplier",
    "R4CSALutContext",
    "IterationSnapshot",
    "OVERFLOW_LUT_ENTRIES",
]

#: Number of overflow-LUT entries generated (the paper's Table 2 lists 8;
#: see the module docstring for why the reproduction provisions 16).
OVERFLOW_LUT_ENTRIES = 16


@dataclass(frozen=True)
class R4CSALutContext:
    """Precomputed state reusable across multiplications.

    LUT-radix4 depends on ``(B, p)`` and LUT-overflow on ``p`` alone, so as
    long as the multiplicand and modulus are unchanged the tables — which
    live in SRAM word lines in ModSRAM — are reused.  This mirrors the
    paper's data-reuse argument.
    """

    multiplicand: int
    modulus: int
    bitwidth: int
    register_width: int
    radix4_lut: Radix4Lut
    overflow_lut: OverflowLut

    @classmethod
    def create(
        cls,
        multiplicand: int,
        modulus: int,
        bitwidth: Optional[int] = None,
        overflow_lut: Optional[OverflowLut] = None,
    ) -> "R4CSALutContext":
        """Precompute both LUTs for a multiplicand/modulus pair.

        ``overflow_lut`` may be passed in when a caller already holds the
        per-modulus table (it depends on ``p`` alone), so switching
        multiplicand only rebuilds LUT-radix4.
        """
        if bitwidth is None:
            bitwidth = max(modulus.bit_length(), 2)
        register_width = bitwidth + 1
        if overflow_lut is None:
            overflow_lut = build_overflow_lut(
                modulus, register_width, entry_count=OVERFLOW_LUT_ENTRIES
            )
        return cls(
            multiplicand=multiplicand,
            modulus=modulus,
            bitwidth=bitwidth,
            register_width=register_width,
            radix4_lut=build_radix4_lut(multiplicand, modulus),
            overflow_lut=overflow_lut,
        )


@dataclass(frozen=True)
class IterationSnapshot:
    """State of the redundant accumulator after one main-loop iteration.

    Captured for dataflow illustrations (Figure 3 of the paper) and for the
    invariant checks in the test suite.
    """

    iteration: int
    digit: int
    overflow_index: int
    sum_word: int
    carry_word: int
    pending_overflow: int


@register_multiplier
class R4CSALutMultiplier(ModularMultiplier):
    """Algorithm 3: radix-4, carry-save, LUT-based interleaved multiplication."""

    name = "r4csa-lut"
    description = (
        "Radix-4 carry-save interleaved multiplication with precomputed "
        "radix-4 and overflow LUTs (Algorithm 3, the paper's contribution)."
    )
    direct_form = True

    def __init__(self, full_range: bool = True, record_trace: bool = False) -> None:
        super().__init__()
        self.full_range = full_range
        self.record_trace = record_trace
        self.last_trace: List[IterationSnapshot] = []
        self._context: Optional[R4CSALutContext] = None
        self._overflow: Optional[Tuple[int, int, OverflowLut]] = None
        self._overflow_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # precomputation / context handling
    # ------------------------------------------------------------------ #
    def _overflow_for(self, modulus: int, register_width: int) -> OverflowLut:
        """Return (and cache) the per-modulus overflow LUT.

        LUT-overflow depends on ``p`` alone, so it is cached separately from
        the ``(B, p)`` context: switching multiplicand under the same
        modulus only rebuilds LUT-radix4.  The build runs under a lock with
        a re-check, so concurrent :meth:`prepare` calls construct the table
        exactly once (the prepare contract of the base class).
        """
        cached = self._overflow
        if cached is not None and cached[0] == modulus and cached[1] == register_width:
            return cached[2]
        with self._overflow_lock:
            cached = self._overflow
            if (
                cached is not None
                and cached[0] == modulus
                and cached[1] == register_width
            ):
                return cached[2]
            lut = build_overflow_lut(
                modulus, register_width, entry_count=OVERFLOW_LUT_ENTRIES
            )
            self._overflow = (modulus, register_width, lut)
            return lut

    def prepare(self, modulus: int) -> None:
        """Build the per-modulus overflow LUT eagerly (idempotent, locked)."""
        bitwidth = max(modulus.bit_length(), 2)
        self._overflow_for(modulus, bitwidth + 1)

    def context_for(self, multiplicand: int, modulus: int) -> R4CSALutContext:
        """Return (and cache) the LUT context for ``(B, p)``.

        The cache has depth one, mirroring the single set of LUT word lines
        in the ModSRAM array.
        """
        context = self._context
        if (
            context is None
            or context.multiplicand != multiplicand
            or context.modulus != modulus
        ):
            bitwidth = max(modulus.bit_length(), 2)
            context = R4CSALutContext.create(
                multiplicand,
                modulus,
                bitwidth=bitwidth,
                overflow_lut=self._overflow_for(modulus, bitwidth + 1),
            )
            self._context = context
            self.stats.precomputations += 1
        return context

    # ------------------------------------------------------------------ #
    # main algorithm
    # ------------------------------------------------------------------ #
    def _multiply(self, a: int, b: int, modulus: int) -> int:
        context = self.context_for(b, modulus)
        sum_word, carry_word, pending = self._main_loop(a, context)
        return self._finalize(sum_word, carry_word, pending, context)

    def _main_loop(
        self, multiplier: int, context: R4CSALutContext
    ) -> Tuple[int, int, int]:
        """Run the carry-free main loop, returning the redundant result.

        Returns ``(sum_word, carry_word, pending_overflow)`` such that
        ``sum_word + carry_word + pending_overflow * 2**register_width`` is
        congruent to ``A * B`` modulo ``p``.
        """
        width = context.register_width
        mask = (1 << width) - 1
        radix4_lut = context.radix4_lut.entries
        overflow_lut = context.overflow_lut.entries
        trace = None
        if self.record_trace:
            trace = self.last_trace = []

        digits = booth_digits_radix4(
            multiplier, context.bitwidth, full_range=self.full_range
        )
        sum_word = carry_word = pending = 0

        for index, digit in enumerate(digits):
            # -- shift left by two (multiply the accumulator by four) ----- #
            sum_word <<= 2
            carry_word <<= 2
            shifted_out = (sum_word >> width) + (carry_word >> width)

            # -- first carry-save addition: the Booth-digit addend -------- #
            # MAJ is written back shifted left by one; the bit that leaves
            # the register escapes into the overflow index.
            sum_word, carry_word = xor3_maj(
                radix4_lut[digit], sum_word & mask, carry_word & mask
            )
            carry_word <<= 1

            # -- fold every escaped bit back in through LUT-overflow ------ #
            # The pending bit escaped *after* the previous iteration's second
            # CSA; the two intervening shift positions give it weight 4.
            overflow_index = shifted_out + (carry_word >> width) + 4 * pending
            sum_word, carry_word = xor3_maj(
                overflow_lut[overflow_index], sum_word, carry_word & mask
            )
            carry_word <<= 1
            pending = carry_word >> width
            carry_word &= mask

            if trace is not None:
                trace.append(
                    IterationSnapshot(
                        iteration=index,
                        digit=digit,
                        overflow_index=overflow_index,
                        sum_word=sum_word,
                        carry_word=carry_word,
                        pending_overflow=pending,
                    )
                )

        # Per iteration: two shifts, two look-ups, two carry-save additions.
        stats = self.stats
        stats.iterations += len(digits)
        stats.shifts += 2 * len(digits)
        stats.lut_lookups += 2 * len(digits)
        stats.carry_save_additions += 2 * len(digits)
        return sum_word, carry_word, pending

    def _finalize(
        self, sum_word: int, carry_word: int, pending: int, context: R4CSALutContext
    ) -> int:
        """Final full addition and reduction (the near-memory step).

        ``sum + carry`` is at most ``2**(n+2)`` and the modulus satisfies
        ``p > 2**(n-1)`` (we size the registers from the modulus), so a
        handful of conditional subtractions suffice; each is counted.
        """
        total = sum_word + carry_word + (pending << context.register_width)
        self.stats.full_additions += 1
        modulus = context.modulus
        while total >= modulus:
            total -= modulus
            self.stats.subtractions += 1
        return total

    # ------------------------------------------------------------------ #
    # cycle model
    # ------------------------------------------------------------------ #
    def cycles(self, bitwidth: int) -> Optional[int]:
        """The paper's cycle count, :func:`~repro.core.complexity.cycles_r4csa_lut`.

        This is the analytic counterpart of the measured count produced by
        the cycle-accurate :class:`repro.modsram.ModSRAMAccelerator`.
        """
        return cycles_r4csa_lut(bitwidth)
