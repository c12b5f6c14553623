"""Analytical fidelity tier: closed-form cycle/energy accounting.

:class:`AnalyticalCostModel` captures the ModSRAM schedule as algebra — the
per-phase cycle counts the controller FSM would measure, and the array
access profile the energy model consumes — without simulating a single word
line.  :class:`AnalyticalModSRAM` combines that algebra with the kernel's
recurrence run as one word-level loop
(:meth:`~repro.modsram.functional.FastHost.multiply`, shared with the
functional tier), so it returns the same
:class:`~repro.modsram.report.MultiplicationResult` shape as the
cycle-accurate tier with *exactly* matching cycle reports (asserted field by
field in ``tests/modsram/test_fidelity.py``; the loop's counts are pinned in
``tests/modsram/test_fast_tier_pins.py``) at functional-tier speed.  The
only quantities taken from the loop rather than closed form are the
data-dependent ones: LUT reuse, extra overflow folds and the final
conditional-subtraction count.

Geometry — array shape, banking, radix, LUT sizing — is a first-class
constructor parameter (:class:`~repro.modsram.geometry.MacroGeometry`); the
default geometry reproduces the paper's constants bit for bit, and the
design-space exploration layer (:mod:`repro.dse`) sweeps it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.modsram.config import ModSRAMConfig
from repro.modsram.functional import FastHost
from repro.modsram.geometry import MacroGeometry, _default_geometry
from repro.modsram.kernel import OPERAND_LOAD_WRITES
from repro.modsram.report import CycleReport, MultiplicationResult
from repro.modsram.trace import ExecutionTrace
from repro.sram.energy import EnergyBreakdown
from repro.sram.stats import ArrayStats

__all__ = ["AnalyticalCostModel", "AnalyticalModSRAM"]

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
        return 6 * self.iterations - 1 + 3 * extra_folds

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

    def energy(
        self,
        reused: bool = False,
        extra_folds: int = 0,
        register_bits_written: int = 0,
    ) -> EnergyBreakdown:
        """Closed-form energy of one multiplication on this macro."""
        return self.config.energy.from_stats(
            self.array_stats(reused, extra_folds), register_bits_written
        )


class AnalyticalModSRAM:
    """Kernel-exact products with closed-form cycle and energy reports.

    The executable kernel implements the radix-4 single-digit recurrence,
    so only radix-4 geometries can run here; other radices are closed-form
    only (:class:`AnalyticalCostModel` directly).
    """

    def __init__(
        self,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
    ) -> None:
        base = config or ModSRAMConfig()
        if geometry is not None:
            if geometry.radix != 4:
                raise ConfigurationError(
                    f"the executable kernel is radix-4; geometry field "
                    f"'radix' = {geometry.radix} is closed-form only "
                    f"(use AnalyticalCostModel)"
                )
            base = geometry.apply_to(base)
        self.config = base
        self.cost_model = AnalyticalCostModel(self.config, geometry)
        self.host = FastHost(self.config)

    @property
    def lut_residency(self):
        """Resident-LUT state (shared semantics with the cycle tier)."""
        return self.host.lut_residency

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

    def multiply_many(
        self, pairs: List[Tuple[int, int]], modulus: int
    ) -> List[MultiplicationResult]:
        """Multiply a batch of operand pairs, reusing LUTs where possible."""
        return [self.multiply(a, b, modulus) for a, b in pairs]

    def expected_iteration_cycles(self) -> int:
        """The analytic main-loop cycle count for this configuration."""
        return self.cost_model.iteration_cycles()

    def energy_report(self) -> EnergyBreakdown:
        """Energy implied by every access performed so far (cumulative)."""
        return self.config.energy.from_stats(
            self.host.stats, self.host.datapath.stats.register_bits_written
        )
