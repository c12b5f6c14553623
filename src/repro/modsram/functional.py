"""Functional fidelity tier: the R4CSA-LUT recurrence on whole words.

:class:`FunctionalModSRAM` runs the cycle-accurate model's algorithm as one
word-level loop (:meth:`FastHost.multiply`): the redundant sum and carry
registers are ``(n+1)``-bit integers, each logic-SA access is one
:func:`~repro.core.carry_save.xor3_maj` against a resident LUT entry, and
no array, decoder, controller or trace is modelled.  The per-step body in
:mod:`repro.modsram.kernel` drives the cycle tier only; tests pin this
loop's products and counts to it (``tests/modsram/test_fast_tier_pins.py``
and the parity property in ``tests/modsram/test_fidelity.py``).  This is
the tier the full-workload studies (ECDSA signing, NTT/MSM batches, chip
scale-out) run on.

What it reports: the product, the LUT-reuse flag and *operation counts*
(word-line writes/reads, logic-SA accesses, near-memory cycles) accumulated
in the same :class:`~repro.sram.stats.ArrayStats` currency the real array
collects — no cycle or energy accounting (that is the analytical tier's
job, see :mod:`repro.modsram.analytical`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.booth import RADIX4_ENCODER_TABLE
from repro.core.carry_save import xor3_maj
from repro.instrumentation import OperationCounter
from repro.modsram.config import ModSRAMConfig
from repro.modsram.datapath import NearMemoryDatapath
from repro.modsram.kernel import (
    NMC_COUNTER_OF_KIND,
    OPERAND_LOAD_WRITES,
    KernelOutcome,
    LutResidency,
    fill_luts,
    validate_operands,
)
from repro.sram.stats import ArrayStats

__all__ = ["FunctionalResult", "FunctionalModSRAM", "FastHost"]

#: Radix-4 Booth digit of each multiplier window ``a_{2i+1} a_{2i} a_{2i-1}``.
_BOOTH_DIGIT_OF_WINDOW = tuple(
    RADIX4_ENCODER_TABLE[(window >> 2, (window >> 1) & 1, window & 1)]
    for window in range(8)
)


@dataclass(frozen=True)
class FunctionalResult:
    """Product plus operation counts of one functional-tier multiplication."""

    product: int
    lut_reused: bool
    extra_overflow_folds: int
    finalize_subtractions: int
    #: Operation counts of this multiplication alone (not cumulative).
    operations: Dict[str, int]
    #: Array-access profile of this multiplication alone; feed it straight
    #: to :meth:`repro.sram.energy.EnergyModel.from_stats` for per-operation
    #: energy attribution.
    stats: ArrayStats


class FastHost:
    """One macro of the fast tiers: the kernel's recurrence on whole words.

    No word line is materialised.  The sum and carry registers are local
    words, and the resident LUTs are the entries of the last fill, held
    while :attr:`lut_residency` names their pair.  Each multiplication
    charges the access statistics, operation counts and near-memory
    register activity the cycle tier collects step by step, once, from its
    counts of LUT fills, overflow folds and conditional subtractions.  The
    datapath's activity counters are kept; its registers are not.
    """

    def __init__(self, config: ModSRAMConfig) -> None:
        self.config = config
        self.datapath = NearMemoryDatapath(config)
        self.lut_residency = LutResidency()
        self.stats = ArrayStats()
        self.counter = OperationCounter("modsram-functional")
        #: Resident radix-4 entries, indexed by Booth window.
        self._radix4_by_window: Tuple[int, ...] = ()
        #: Resident overflow entries, indexed by overflow value.
        self._overflow: Tuple[int, ...] = ()

    def multiply(self, a: int, b: int, modulus: int) -> KernelOutcome:
        """Compute ``a * b mod modulus`` as the cycle tier's kernel would."""
        config = self.config
        validate_operands(config, a, b, modulus)
        reused = self.lut_residency.matches(b, modulus)
        lut_compute_cycles = 0
        if not reused:
            radix4, overflow, lut_compute_cycles = fill_luts(config, b, modulus)
            self._radix4_by_window = tuple(
                radix4[digit] for digit in _BOOTH_DIGIT_OF_WINDOW
            )
            self._overflow = overflow.entries
            self.lut_residency.retain(b, modulus)

        width = config.register_width
        mask = (1 << width) - 1
        radix4_by_window = self._radix4_by_window
        overflow_lut = self._overflow
        last_row = len(overflow_lut) - 1
        # Bit ``j`` of ``windows`` is ``a_{j-1}``, so the window of the digit
        # at bit ``2i`` is ``(windows >> 2i) & 7`` with ``a_{-1} = 0``.
        windows = a << 1
        sum_word = carry_word = pending = 0
        extra_folds = surplus_pending = 0
        for base in range(2 * config.iterations - 2, -1, -2):
            # Previous write-back, pre-shifted by two: the bits leaving the
            # registers join the overflow index.  So do the bits that
            # escaped the previous folds, with weight 4; beyond the first,
            # the datapath latches them into the shift-overflow field.
            sum_word <<= 2
            carry_word <<= 2
            shifted_out = (sum_word >> width) + (carry_word >> width)
            sum_word &= mask
            carry_word &= mask
            if pending > 1:
                surplus_pending += 1

            # First section: add the Booth-digit entry.  MAJ is written
            # back shifted left by one; its escaped bit joins the index.
            sum_word, carry_word = xor3_maj(
                radix4_by_window[(windows >> base) & 7], sum_word, carry_word
            )
            carry_word <<= 1
            remaining = shifted_out + (carry_word >> width) + 4 * pending
            carry_word &= mask

            # Second section: fold the overflow back in, at most the last
            # overflow row's worth per logic-SA access.
            pending = 0
            while True:
                fold = remaining if remaining < last_row else last_row
                sum_word, carry_word = xor3_maj(
                    overflow_lut[fold], sum_word, carry_word
                )
                carry_word <<= 1
                pending += carry_word >> width
                carry_word &= mask
                remaining -= fold
                if not remaining:
                    break
                extra_folds += 1

        total = sum_word + carry_word + (pending << width)
        subtractions = 0
        while total >= modulus:
            total -= modulus
            subtractions += 1

        self._charge(
            reused, lut_compute_cycles, extra_folds, surplus_pending, subtractions
        )
        return KernelOutcome(
            product=total,
            lut_reused=reused,
            extra_overflow_folds=extra_folds,
            finalize_subtractions=subtractions,
        )

    def _charge(
        self,
        reused: bool,
        lut_compute_cycles: int,
        extra_folds: int,
        surplus_pending: int,
        subtractions: int,
    ) -> None:
        """Charge one multiplication's accesses, operations and registers.

        The counts are those of :func:`~repro.modsram.kernel.run_kernel`:
        two logic-SA accesses per iteration plus one per extra fold; four
        sum/carry write-backs per iteration plus two per extra fold, less
        the elided last carry write-back; one plain read each to latch the
        multiplier and to finalise.
        """
        config = self.config
        iterations = config.iterations
        accesses = 2 * iterations + extra_folds
        writebacks = 4 * iterations - 1 + 2 * extra_folds
        lut_writes = 0 if reused else config.lut_rows
        writes = OPERAND_LOAD_WRITES + lut_writes + writebacks
        reads = 2 + accesses

        stats = self.stats
        stats.row_writes += writes
        stats.bits_written += writes * config.columns
        stats.row_reads += reads
        stats.compute_reads += accesses
        stats.rows_activated += 2 + 3 * accesses
        stats.precharges += reads

        # Only non-zero counts: adding zero would create the key.
        counter = self.counter
        counter.add("memory_write", writes)
        counter.add("memory_read", 2)
        counter.add("imc_access", accesses)
        if lut_compute_cycles:
            counter.add(NMC_COUNTER_OF_KIND["lut_compute"], lut_compute_cycles)
        counter.add(NMC_COUNTER_OF_KIND["full_add"], 1)
        if subtractions:
            counter.add(NMC_COUNTER_OF_KIND["subtract"], subtractions)
        counter.add("modmul", 1)

        # Register writes, in NearMemoryDatapath's widths: the load latches
        # the multiplier (n bits), the MSB extensions (2), the overflow
        # field (3) and the pending bit (1); each access latches XOR3 and
        # MAJ (n+1 each); each write-back updates the MSB extensions; each
        # iteration but the last latches the overflow field and the pending
        # bit, and again the overflow field when its folds escaped more than
        # one bit.
        shifted_iterations = iterations - 1
        datapath = self.datapath.stats
        datapath.register_writes += (
            4 + 2 * accesses + writebacks + 2 * shifted_iterations + surplus_pending
        )
        datapath.register_bits_written += (
            config.bitwidth + 6
            + 2 * config.register_width * accesses
            + 2 * writebacks
            + 4 * shifted_iterations
            + 3 * surplus_pending
        )
        datapath.booth_encodings += iterations
        datapath.overflow_updates += 1 + shifted_iterations + surplus_pending


class FunctionalModSRAM:
    """The functional fidelity tier: products and operation counts only."""

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or ModSRAMConfig()
        self.host = FastHost(self.config)

    @property
    def counter(self) -> OperationCounter:
        """Cumulative operation counts across every multiplication."""
        return self.host.counter

    @property
    def stats(self) -> ArrayStats:
        """Cumulative access statistics (ArrayStats currency)."""
        return self.host.stats

    def multiply(self, a: int, b: int, modulus: int) -> FunctionalResult:
        """Compute ``a * b mod modulus`` with the word-level loop."""
        host = self.host
        before = host.counter.as_dict()
        stats_before = host.stats.snapshot()
        outcome = host.multiply(a, b, modulus)
        after = host.counter.as_dict()
        delta = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        return FunctionalResult(
            product=outcome.product,
            lut_reused=outcome.lut_reused,
            extra_overflow_folds=outcome.extra_overflow_folds,
            finalize_subtractions=outcome.finalize_subtractions,
            operations=delta,
            stats=host.stats.delta_since(stats_before),
        )

    def multiply_many(
        self, pairs: List[Tuple[int, int]], modulus: int
    ) -> List[FunctionalResult]:
        """Multiply a batch of operand pairs, reusing LUTs where possible."""
        return [self.multiply(a, b, modulus) for a, b in pairs]
