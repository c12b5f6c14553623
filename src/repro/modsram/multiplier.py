"""Adapters exposing the simulation tiers as ModularMultipliers.

This lets the ECC field layer, the ZKP kernels and the algorithm test suite
treat the simulated hardware exactly like any software algorithm: the same
interface, the same operand preconditions, the same oracle checks.  Three
adapters are registered, one per deployment shape:

``modsram``
    The cycle-accurate tier (word-line-level SRAM simulation).
``modsram-fast``
    The analytical tier by default — identical products and exact cycle
    reports from the kernel's recurrence run as one word-level loop, about
    30x faster than ``modsram`` at 256 bits; construct with
    ``fidelity="functional"`` to drop the cycle reports entirely.
``modsram-chip``
    An N-macro chip of analytical macros with LUT-reuse-aware dispatch
    (:class:`~repro.modsram.chip.Chip`).

Each adapter accumulates cycle statistics across calls, which is how the
application-level examples estimate end-to-end latency on ModSRAM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.errors import ConfigurationError
from repro.modsram.analytical import AnalyticalModSRAM
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.chip import Chip, ChipSchedule
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import Fidelity
from repro.modsram.functional import FunctionalModSRAM
from repro.modsram.report import CycleReport

__all__ = ["ModSRAMMultiplier", "ModSRAMFastMultiplier", "ModSRAMChipMultiplier"]


def _config_for(
    explicit: Optional[ModSRAMConfig], modulus: int
) -> ModSRAMConfig:
    """The macro configuration serving ``modulus`` (explicit wins)."""
    if explicit is not None:
        return explicit
    return ModSRAMConfig().with_bitwidth(max(modulus.bit_length(), 4))


@register_multiplier
class ModSRAMMultiplier(ModularMultiplier):
    """Runs every multiplication through the cycle-level ModSRAM model."""

    name = "modsram"
    description = (
        "Cycle-level ModSRAM accelerator model (R4CSA-LUT executed in the "
        "simulated 8T SRAM array)."
    )
    direct_form = True

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        super().__init__()
        self._config = config
        self._accelerators: Dict[int, ModSRAMAccelerator] = {}
        self.reports: List[CycleReport] = []

    # ------------------------------------------------------------------ #
    # accelerator management
    # ------------------------------------------------------------------ #
    def accelerator_for(self, modulus: int) -> ModSRAMAccelerator:
        """Return (and cache) a macro sized for ``modulus``.

        When the adapter was constructed with an explicit configuration that
        configuration is always used; otherwise a macro is instantiated per
        modulus bitwidth, mirroring how a real deployment would provision
        one macro per field.
        """
        config = _config_for(self._config, modulus)
        key = config.bitwidth
        if key not in self._accelerators:
            self._accelerators[key] = ModSRAMAccelerator(config)
        return self._accelerators[key]

    def prepare(self, modulus: int) -> None:
        """Provision the simulated macro for ``modulus`` eagerly."""
        self.accelerator_for(modulus)

    # ------------------------------------------------------------------ #
    # ModularMultiplier interface
    # ------------------------------------------------------------------ #
    def _multiply(self, a: int, b: int, modulus: int) -> int:
        accelerator = self.accelerator_for(modulus)
        result = accelerator.multiply(a, b, modulus)
        self.reports.append(result.report)
        self._account(result.report)
        return result.product

    def _account(self, report: CycleReport) -> None:
        self.stats.iterations += report.iterations
        self.stats.lut_lookups += 2 * report.iterations
        self.stats.carry_save_additions += 2 * report.iterations
        if not report.lut_reused:
            self.stats.precomputations += 1

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Main-loop cycles of a macro sized for ``bitwidth`` operands."""
        config = (
            self._config
            if self._config is not None and self._config.bitwidth == bitwidth
            else ModSRAMConfig().with_bitwidth(bitwidth)
        )
        return config.expected_iteration_cycles

    # ------------------------------------------------------------------ #
    # aggregate reporting
    # ------------------------------------------------------------------ #
    def total_iteration_cycles(self) -> int:
        """Main-loop cycles accumulated over every multiplication so far."""
        return sum(report.iteration_cycles for report in self.reports)

    def lut_reuse_rate(self) -> float:
        """Fraction of multiplications that reused the resident LUTs."""
        if not self.reports:
            return 0.0
        reused = sum(1 for report in self.reports if report.lut_reused)
        return reused / len(self.reports)


@register_multiplier
class ModSRAMFastMultiplier(ModSRAMMultiplier):
    """The analytical (or functional) tier behind the multiplier interface.

    Identical products to ``modsram`` — the same recurrence, run as one
    word-level loop instead of on the SRAM substrate.  The default
    ``fidelity="analytical"`` keeps exact per-multiplication
    :class:`CycleReport`\\ s; ``fidelity="functional"`` drops the cycle
    model entirely (``cycles()`` returns ``None``) for pure throughput.
    """

    name = "modsram-fast"
    description = (
        "Analytical-tier ModSRAM model: the R4CSA-LUT kernel as one "
        "word-level loop with closed-form cycle reports (no SRAM substrate)."
    )
    direct_form = True

    def __init__(
        self,
        config: Optional[ModSRAMConfig] = None,
        fidelity: Union[str, Fidelity] = Fidelity.ANALYTICAL,
    ) -> None:
        super().__init__(config)
        tier = Fidelity.coerce(fidelity)
        if tier is Fidelity.CYCLE:
            raise ConfigurationError(
                "fidelity='cycle' is the 'modsram' multiplier; 'modsram-fast' "
                "offers the analytical and functional tiers"
            )
        self.fidelity = tier
        self._simulators: Dict[int, object] = {}

    def simulator_for(
        self, modulus: int
    ) -> Union[AnalyticalModSRAM, FunctionalModSRAM]:
        """Return (and cache) a tier simulator sized for ``modulus``."""
        config = _config_for(self._config, modulus)
        key = config.bitwidth
        if key not in self._simulators:
            tier_cls = (
                AnalyticalModSRAM
                if self.fidelity is Fidelity.ANALYTICAL
                else FunctionalModSRAM
            )
            self._simulators[key] = tier_cls(config)
        return self._simulators[key]

    def accelerator_for(self, modulus: int) -> ModSRAMAccelerator:
        raise ConfigurationError(
            "the fast tiers have no SRAM accelerator; use simulator_for()"
        )

    def prepare(self, modulus: int) -> None:
        self.simulator_for(modulus)

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        simulator = self.simulator_for(modulus)
        result = simulator.multiply(a, b, modulus)
        if self.fidelity is Fidelity.ANALYTICAL:
            self.reports.append(result.report)
            self._account(result.report)
        else:
            self.stats.iterations += simulator.config.iterations
            self.stats.lut_lookups += 2 * simulator.config.iterations
            self.stats.carry_save_additions += 2 * simulator.config.iterations
            if not result.lut_reused:
                self.stats.precomputations += 1
        return result.product

    def cycles(self, bitwidth: int) -> Optional[int]:
        if self.fidelity is Fidelity.FUNCTIONAL:
            return None
        return super().cycles(bitwidth)


@register_multiplier
class ModSRAMChipMultiplier(ModSRAMMultiplier):
    """An N-macro chip behind the multiplier interface.

    Every multiplication is dispatched LUT-reuse-aware across the chip's
    analytical macros (:class:`~repro.modsram.chip.Chip`); per-operation
    latency matches the single-macro tiers while the chip-level activity
    summary (:meth:`activity`) exposes the scale-out throughput.
    """

    name = "modsram-chip"
    description = (
        "N-macro ModSRAM chip: analytical macros with LUT-reuse-aware "
        "chip-level dispatch."
    )
    direct_form = True

    def __init__(
        self, config: Optional[ModSRAMConfig] = None, macros: int = 4
    ) -> None:
        super().__init__(config)
        if macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        self.macros = macros
        self._chips: Dict[int, Chip] = {}

    def chip_for(self, modulus: int) -> Chip:
        """Return (and cache) a chip sized for ``modulus``."""
        config = _config_for(self._config, modulus)
        key = config.bitwidth
        if key not in self._chips:
            self._chips[key] = Chip(self.macros, config)
        return self._chips[key]

    def accelerator_for(self, modulus: int) -> ModSRAMAccelerator:
        raise ConfigurationError(
            "the chip tier has no single SRAM accelerator; use chip_for()"
        )

    def prepare(self, modulus: int) -> None:
        self.chip_for(modulus)

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        chip = self.chip_for(modulus)
        result = chip.multiply(a, b, modulus)
        self.reports.append(result.report)
        self._account(result.report)
        return result.product

    def activity(self, bitwidth: Optional[int] = None) -> ChipSchedule:
        """Chip-level schedule summary for one provisioned bitwidth.

        With a single provisioned chip (the common case) ``bitwidth`` may
        be omitted.
        """
        if not self._chips:
            raise ConfigurationError("no chip provisioned yet; multiply first")
        if bitwidth is None:
            if len(self._chips) > 1:
                raise ConfigurationError(
                    f"several chips provisioned ({sorted(self._chips)}); "
                    "name the bitwidth"
                )
            bitwidth = next(iter(self._chips))
        return self._chips[bitwidth].activity()
