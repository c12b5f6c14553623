"""Analytical fidelity tier: whole-word recurrence, closed-form cycles.

:class:`AnalyticalModSRAM` runs the cycle-accurate model's algorithm as one
word-level loop (:meth:`FastHost.multiply`) and takes its cycle and energy
reports from :class:`AnalyticalCostModel`, the ModSRAM schedule as algebra:
the per-phase cycle counts the controller FSM would measure, and the array
accesses and near-memory register writes the energy model prices, without
simulating a single word line.  The cost model is the one closed form of
what one multiplication charges: the reports match the cycle-accurate
tier's *exactly* (asserted field by field in
``tests/modsram/test_fidelity.py``; the loop's counts are pinned in
``tests/modsram/test_fast_tier_pins.py``), and the design-space exploration
prices every design point with it.  Only the data-dependent
quantities come from the loop: LUT reuse, extra overflow folds and the final
conditional-subtraction count.  This is the tier the full-workload studies
(ECDSA signing, NTT/MSM batches, chip scale-out) run on.

Geometry — array shape, banking, radix, LUT sizing — is a first-class
constructor parameter (:class:`~repro.modsram.geometry.MacroGeometry`); the
default geometry reproduces the paper's constants bit for bit, and the
design-space exploration layer (:mod:`repro.dse`) sweeps it.  The cost model
prices every geometry; :class:`AnalyticalModSRAM` runs only the paper's
macro.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.booth import RADIX4_ENCODER_TABLE
from repro.core.carry_save import xor3_maj
from repro.core.complexity import r4csa_lut_main_loop
from repro.errors import ConfigurationError
from repro.instrumentation import OperationCounter
from repro.modsram.config import ModSRAMConfig
from repro.modsram.datapath import DatapathStats, NearMemoryDatapath
from repro.modsram.geometry import MacroGeometry, _default_geometry
from repro.modsram.kernel import (
    NMC_COUNTER_OF_KIND,
    OPERAND_LOAD_WRITES,
    KernelOutcome,
    LutResidency,
    fill_luts,
    validate_operands,
)
from repro.modsram.report import CycleReport, MultiplicationResult
from repro.modsram.trace import ExecutionTrace
from repro.sram.energy import EnergyBreakdown
from repro.sram.stats import ArrayStats

__all__ = ["AnalyticalCostModel", "AnalyticalModSRAM", "FastHost"]

#: Radix-4 Booth digit of each multiplier window ``a_{2i+1} a_{2i} a_{2i-1}``.
_BOOTH_DIGIT_OF_WINDOW = tuple(
    RADIX4_ENCODER_TABLE[(window >> 2, (window >> 1) & 1, window & 1)]
    for window in range(8)
)


class AnalyticalCostModel:
    """Closed-form per-phase cycle and access algebra of one macro.

    ``geometry`` defaults to the shape the config implies (the paper's
    single-bank radix-4 design), in which case every number below matches
    the pre-geometry closed forms exactly.  A non-default geometry changes
    the algebra — banked loads/fills, radix-scaled loop length and LUT
    sizing — while the schedule structure stays the paper's.
    """

    def __init__(
        self,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
    ) -> None:
        self.config = config or ModSRAMConfig()
        self.geometry = _default_geometry(self.config, geometry)
        if self.geometry.columns < self.config.bitwidth:
            raise ConfigurationError(
                f"geometry field 'columns' must cover the operand width: "
                f"columns={self.geometry.columns} < "
                f"bitwidth={self.config.bitwidth}"
            )
        self._overflow_rows = self.geometry.overflow_rows

    @property
    def iterations(self) -> int:
        """Main-loop iterations one multiplication takes at this geometry."""
        return self.geometry.iterations(
            self.config.bitwidth, self.config.extend_for_full_range
        )

    # ------------------------------------------------------------------ #
    # cycle algebra (matches the controller budget exactly)
    # ------------------------------------------------------------------ #
    def load_cycles(self) -> int:
        """Operand loading: five row writes (banked) plus the multiplier read."""
        return self.geometry.write_burst_cycles(OPERAND_LOAD_WRITES) + 1

    def lut_fill_cycles(self, reused: bool = False) -> int:
        """Full LUT precomputation for a fresh (multiplicand, modulus) pair.

        Two cycles per computed radix entry, two per non-trivial overflow
        entry, plus the (banked) writes of every LUT word line.  Zero when
        the resident tables are reused.
        """
        if reused:
            return 0
        compute = 2 * self.geometry.computed_radix_entries + 2 * (
            self._overflow_rows - 1
        )
        writes = self.geometry.radix_rows + self._overflow_rows
        return compute + self.geometry.write_burst_cycles(writes)

    def radix4_refill_cycles(self) -> int:
        """Refilling only the multiple rows (modulus unchanged)."""
        return self.geometry.write_burst_cycles(
            self.geometry.radix_rows
        ) + 2 * self.geometry.computed_radix_entries

    def iteration_cycles(self, extra_folds: int = 0) -> int:
        """Main loop: six cycles per iteration, last carry write-back elided.

        Each extra overflow fold costs three more cycles (two write-backs
        plus one additional logic-SA access).  The recurrence is serial, so
        banking does not shorten it.
        """
        return r4csa_lut_main_loop(self.iterations) + 3 * extra_folds

    def finalize_cycles(self, subtractions: int = 1) -> int:
        """Finalisation: sum read, full addition, then the reduction steps."""
        return 2 + subtractions

    def total_cycles(
        self,
        reused: bool = False,
        extra_folds: int = 0,
        subtractions: int = 1,
    ) -> int:
        """Every cycle of one multiplication under the schedule algebra."""
        return (
            self.load_cycles()
            + self.lut_fill_cycles(reused)
            + self.iteration_cycles(extra_folds)
            + self.finalize_cycles(subtractions)
        )

    def report(
        self,
        reused: bool = False,
        extra_folds: int = 0,
        subtractions: int = 1,
    ) -> CycleReport:
        """The :class:`CycleReport` the cycle-accurate tier would measure."""
        return CycleReport(
            iterations=self.iterations,
            load_cycles=self.load_cycles(),
            precompute_cycles=self.lut_fill_cycles(reused),
            iteration_cycles=self.iteration_cycles(extra_folds),
            finalize_cycles=self.finalize_cycles(subtractions),
            extra_overflow_folds=extra_folds,
            lut_reused=reused,
            frequency_mhz=self.config.frequency_mhz,
        )

    # ------------------------------------------------------------------ #
    # access algebra (feeds the sram-layer energy model)
    # ------------------------------------------------------------------ #
    def array_stats(
        self, reused: bool = False, extra_folds: int = 0
    ) -> ArrayStats:
        """The :class:`ArrayStats` profile one multiplication implies.

        This is the closed-form counterpart of what the behavioural array
        collects: the energy model consumes either interchangeably.  These
        are access *counts*, not cycles — banking overlaps writes in time
        but every bit still toggles, so the profile is bank-invariant.
        """
        iterations = self.iterations
        columns = self.geometry.columns
        lut_writes = (
            0
            if reused
            else self.geometry.radix_rows + self._overflow_rows
        )
        row_writes = (
            OPERAND_LOAD_WRITES
            + lut_writes
            + 4 * iterations
            - 1
            + 2 * extra_folds
        )
        compute_reads = 2 * iterations + extra_folds
        row_reads = 2 + compute_reads  # multiplier load + finalisation read
        return ArrayStats(
            row_writes=row_writes,
            row_reads=row_reads,
            compute_reads=compute_reads,
            rows_activated=2 + 3 * compute_reads,
            precharges=row_reads,
            bits_written=row_writes * columns,
            read_disturb_events=0,
        )

    def datapath_stats(self, extra_folds: int = 0) -> DatapathStats:
        """The :class:`DatapathStats` one multiplication implies.

        The closed-form counterpart of what the near-memory datapath
        collects, in :class:`NearMemoryDatapath`'s register widths: the
        load latches the multiplier (n bits), the MSB extensions (2), the
        overflow field (3) and the pending bit (1); each logic-SA access
        (two per iteration plus one per extra fold) latches XOR3 and MAJ
        (n+1 each); each sum/carry write-back (four per iteration plus two
        per extra fold, less the elided last carry write-back) updates the
        MSB extensions; each iteration but the last latches the overflow
        field and the pending bit.  LUT reuse writes no register.
        """
        iterations = self.iterations
        accesses = 2 * iterations + extra_folds
        writebacks = 4 * iterations - 1 + 2 * extra_folds
        shifted_iterations = iterations - 1
        return DatapathStats(
            register_writes=4 + 2 * accesses + writebacks + 2 * shifted_iterations,
            register_bits_written=(
                self.config.bitwidth + 6
                + 2 * self.config.register_width * accesses
                + 2 * writebacks
                + 4 * shifted_iterations
            ),
            booth_encodings=iterations,
            overflow_updates=1 + shifted_iterations,
        )

    def energy(self, reused: bool = False, extra_folds: int = 0) -> EnergyBreakdown:
        """Closed-form energy of one multiplication on this macro.

        The array accesses of :meth:`array_stats` plus the register writes
        of :meth:`datapath_stats`: what either executable tier's
        ``energy_report()`` reads after the same multiplication.
        """
        return self.config.energy.from_stats(
            self.array_stats(reused, extra_folds),
            self.datapath_stats(extra_folds).register_bits_written,
        )


class FastHost:
    """One analytical-tier macro: the kernel's recurrence on whole words.

    The redundant sum and carry registers are ``(n+1)``-bit local words,
    each logic-SA access is one :func:`~repro.core.carry_save.xor3_maj`
    against a resident LUT entry, and no array, decoder, controller or
    trace is modelled.  The resident LUTs are the entries of the last fill,
    held while :attr:`lut_residency` names their pair.  Each multiplication
    charges the access statistics, operation counts and near-memory
    register activity the cycle tier collects step by step, once, from its
    counts of LUT fills, overflow folds and conditional subtractions; the
    access and register counts are the cost model's
    (:meth:`~AnalyticalCostModel.array_stats`,
    :meth:`~AnalyticalCostModel.datapath_stats`).  The datapath's activity
    counters are kept; its registers are not.
    """

    def __init__(self, cost_model: AnalyticalCostModel) -> None:
        self.cost_model = cost_model
        self.config = cost_model.config
        self.datapath = NearMemoryDatapath(self.config)
        self.lut_residency = LutResidency()
        self.stats = ArrayStats()
        self.counter = OperationCounter("modsram-analytical")
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
        sum_word = carry_word = pending = extra_folds = 0
        for base in range(2 * config.iterations - 2, -1, -2):
            # Previous write-back, pre-shifted by two: the bits leaving the
            # registers join the overflow index, and so does the bit that
            # escaped the previous folds, with weight 4.
            sum_word <<= 2
            carry_word <<= 2
            shifted_out = (sum_word >> width) + (carry_word >> width)
            sum_word &= mask
            carry_word &= mask

            # First section: add the Booth-digit entry.  MAJ is written
            # back shifted left by one; its escaped bit joins the index.
            sum_word, carry_word = xor3_maj(
                radix4_by_window[(windows >> base) & 7], sum_word, carry_word
            )
            carry_word <<= 1
            remaining = shifted_out + (carry_word >> width) + 4 * pending
            carry_word &= mask

            # Second section: fold the overflow back in, at most the last
            # overflow row's worth per logic-SA access.  At most one fold
            # lets a bit escape (tests/modsram/test_fidelity.py::
            # TestExtraOverflowFolds), so ``pending`` stays a bit.
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

        self._charge(reused, lut_compute_cycles, extra_folds, subtractions)
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
        subtractions: int,
    ) -> None:
        """Charge one multiplication's accesses, operations and registers.

        The access profile and the register activity are the cost model's
        closed forms.  The operation counts are those of
        :func:`~repro.modsram.kernel.run_kernel`: one logic-SA access per
        compute read, one plain read each to latch the multiplier and to
        finalise.
        """
        cost_model = self.cost_model
        profile = cost_model.array_stats(reused, extra_folds)
        self.stats.accumulate(profile)
        registers = cost_model.datapath_stats(extra_folds)
        datapath = self.datapath.stats
        datapath.register_writes += registers.register_writes
        datapath.register_bits_written += registers.register_bits_written
        datapath.booth_encodings += registers.booth_encodings
        datapath.overflow_updates += registers.overflow_updates

        # Only non-zero counts: adding zero would create the key.
        counter = self.counter
        counter.add("memory_write", profile.row_writes)
        counter.add("memory_read", 2)
        counter.add("imc_access", profile.compute_reads)
        if lut_compute_cycles:
            counter.add(NMC_COUNTER_OF_KIND["lut_compute"], lut_compute_cycles)
        counter.add(NMC_COUNTER_OF_KIND["full_add"], 1)
        if subtractions:
            counter.add(NMC_COUNTER_OF_KIND["subtract"], subtractions)
        counter.add("modmul", 1)


class AnalyticalModSRAM:
    """Kernel-exact products with closed-form cycle and energy reports.

    The word-level loop implements the paper's macro — radix-4 Booth
    digits, one bank, an 8-row overflow LUT — so a ``geometry`` that
    changes any of those is rejected; such geometries are closed-form only
    (:class:`AnalyticalCostModel` directly).
    """

    tier = "analytical"

    def __init__(
        self,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
    ) -> None:
        base = config or ModSRAMConfig()
        if geometry is not None:
            geometry.check_executable()
            base = geometry.apply_to(base)
        self.config = base
        self.cost_model = AnalyticalCostModel(self.config, geometry)
        self.host = FastHost(self.cost_model)

    def multiply(self, a: int, b: int, modulus: int) -> MultiplicationResult:
        """Compute ``a * b mod modulus``; cycles come from the cost model."""
        outcome = self.host.multiply(a, b, modulus)
        report = self.cost_model.report(
            reused=outcome.lut_reused,
            extra_folds=outcome.extra_overflow_folds,
            subtractions=outcome.finalize_subtractions,
        )
        return MultiplicationResult(
            product=outcome.product,
            report=report,
            trace=ExecutionTrace(enabled=False),
        )

    def energy_report(self) -> EnergyBreakdown:
        """Energy implied by every access performed so far (cumulative)."""
        return self.config.energy.from_stats(
            self.host.stats, self.host.datapath.stats.register_bits_written
        )
