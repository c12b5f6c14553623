"""Adapters exposing the simulation tiers as ModularMultipliers.

This lets the ECC field layer, the ZKP kernels and the algorithm test suite
treat the simulated hardware exactly like any software algorithm: the same
interface, the same operand preconditions, the same oracle checks.  One
adapter, :class:`ModSRAMMultiplier`, caches a simulator per operand width
and accounts its cycle reports; each registered adapter names only the
tier it runs (``tier``), which
:func:`~repro.modsram.fidelity.build_simulator` builds:

``modsram``
    The cycle-accurate tier (word-line-level SRAM simulation).
``modsram-fast``
    The analytical tier — identical products and exact cycle reports from
    the kernel's recurrence run as one word-level loop, about 30x faster
    than ``modsram`` at 256 bits.
``modsram-chip``
    An N-macro chip of analytical macros with LUT-reuse-aware dispatch
    (:class:`~repro.modsram.chip.Chip`).
``modsram-hdl``
    The elaborated RTL on the event simulator
    (:class:`~repro.hdl.eventsim.HdlModSRAM`).

Each adapter accumulates cycle statistics across calls, which is how the
application-level examples estimate end-to-end latency on ModSRAM.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.errors import ConfigurationError
from repro.modsram.chip import Chip, ChipSchedule
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import Fidelity, build_simulator
from repro.modsram.report import CycleReport

__all__ = [
    "ModSRAMMultiplier",
    "ModSRAMFastMultiplier",
    "ModSRAMChipMultiplier",
    "ModSRAMHdlMultiplier",
]


@register_multiplier
class ModSRAMMultiplier(ModularMultiplier):
    """Runs every multiplication through the cycle-level ModSRAM model.

    Subclasses run another tier by naming it in :attr:`tier` (and a chip
    by setting :attr:`macros`); :meth:`simulator_for` builds it.
    """

    name = "modsram"
    description = (
        "Cycle-level ModSRAM accelerator model (R4CSA-LUT executed in the "
        "simulated 8T SRAM array)."
    )
    direct_form = True
    #: The fidelity tier every simulator of this adapter runs.
    tier = Fidelity.CYCLE.value
    #: Macros per simulator: ``None`` runs one macro of :attr:`tier`.
    macros: Optional[int] = None

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        super().__init__()
        self._config = config
        self._simulators: Dict[int, object] = {}
        self._clear_reports()

    def _clear_reports(self) -> None:
        # Only what the aggregates read is kept, so an adapter that runs
        # for a process's lifetime holds a fixed amount of report state.
        self._count = 0
        self._reused = 0
        self._iteration_cycles = 0
        self._last_report: Optional[CycleReport] = None

    # ------------------------------------------------------------------ #
    # simulator management
    # ------------------------------------------------------------------ #
    def simulator_for(self, modulus: int):
        """Return (and cache) a simulator sized for ``modulus``.

        When the adapter was constructed with an explicit configuration that
        configuration is always used; otherwise a simulator is built per
        modulus bitwidth, mirroring how a real deployment would provision
        one macro per field.
        """
        config = self._config
        if config is None:
            bitwidth = max(modulus.bit_length(), 4)
            config = ModSRAMConfig().with_bitwidth(bitwidth)
        key = config.bitwidth
        if key not in self._simulators:
            self._simulators[key] = (
                build_simulator(self.tier, config)
                if self.macros is None
                else Chip(self.macros, config)
            )
        return self._simulators[key]

    def prepare(self, modulus: int) -> None:
        """Provision the simulator for ``modulus`` eagerly."""
        self.simulator_for(modulus)

    # ------------------------------------------------------------------ #
    # ModularMultiplier interface
    # ------------------------------------------------------------------ #
    def _multiply(self, a: int, b: int, modulus: int) -> int:
        result = self.simulator_for(modulus).multiply(a, b, modulus)
        report = result.report
        self._count += 1
        self._iteration_cycles += report.iteration_cycles
        self._last_report = report
        self.stats.iterations += report.iterations
        self.stats.lut_lookups += 2 * report.iterations
        self.stats.carry_save_additions += 2 * report.iterations
        if report.lut_reused:
            self._reused += 1
        else:
            self.stats.precomputations += 1
        return result.product

    def reset_stats(self) -> None:
        """Clear the operation counters and the cycle aggregates."""
        super().reset_stats()
        self._clear_reports()

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
    @property
    def last_report(self) -> Optional[CycleReport]:
        """The latest multiplication's cycle report (``None`` before one)."""
        return self._last_report

    def total_iteration_cycles(self) -> int:
        """Main-loop cycles accumulated over every multiplication so far."""
        return self._iteration_cycles

    def lut_reuse_rate(self) -> float:
        """Fraction of multiplications that reused the resident LUTs."""
        if not self._count:
            return 0.0
        return self._reused / self._count


@register_multiplier
class ModSRAMFastMultiplier(ModSRAMMultiplier):
    """The analytical tier behind the multiplier interface.

    Identical products and :class:`CycleReport`\\ s to ``modsram`` — the
    same recurrence, run as one word-level loop instead of on the SRAM
    substrate.
    """

    name = "modsram-fast"
    description = (
        "Analytical-tier ModSRAM model: the R4CSA-LUT kernel as one "
        "word-level loop with closed-form cycle reports (no SRAM substrate)."
    )
    tier = Fidelity.ANALYTICAL.value


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
    tier = Fidelity.ANALYTICAL.value

    def __init__(
        self, config: Optional[ModSRAMConfig] = None, macros: int = 4
    ) -> None:
        super().__init__(config)
        if macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        self.macros = macros

    def activity(self, bitwidth: Optional[int] = None) -> ChipSchedule:
        """Chip-level schedule summary for one provisioned bitwidth.

        With a single provisioned chip (the common case) ``bitwidth`` may
        be omitted.
        """
        if not self._simulators:
            raise ConfigurationError("no chip provisioned yet; multiply first")
        if bitwidth is None:
            if len(self._simulators) > 1:
                raise ConfigurationError(
                    f"several chips provisioned ({sorted(self._simulators)}); "
                    "name the bitwidth"
                )
            bitwidth = next(iter(self._simulators))
        return self._simulators[bitwidth].activity()


@register_multiplier
class ModSRAMHdlMultiplier(ModSRAMMultiplier):
    """Runs every multiplication through the RTL event simulator.

    Provisioning a width elaborates the macro RTL and compiles it for
    event-driven execution; the analytic :meth:`cycles` model (identical
    by construction, enforced by the parity suite) keeps backend metadata
    queries cheap.
    """

    name = "modsram-hdl"
    description = (
        "HDL co-simulation tier: the elaborated ModSRAM RTL executed by the "
        "event-driven simulator, cycle counts measured from the netlist."
    )
    tier = Fidelity.HDL.value
