"""Parametric area model of the ModSRAM macro (Figure 5 / Table 3).

The paper reports 0.053 mm² in 65 nm for the 64 × 256 macro, broken down as
67 % SRAM array, 20 % in-memory circuit (the three sense amplifiers per read
bitline plus the LUT-select mux), 11 % near-memory circuit (three full-width
flip-flop registers, shifters, Booth encoder, overflow logic and the
controller) and 2 % word-line decoders, and a 32 % area overhead over a
plain SRAM macro of the same capacity (which already contains one sense
amplifier per column and a word-line decoder).

The model rebuilds those numbers from per-component primitives (8T cell,
latch-type SA, DFF, NAND2-equivalent gate) whose 65 nm areas are calibrated
so the default configuration lands on the published total and breakdown; the
same primitives then produce breakdowns for any other configuration, which
is what the design-space exploration sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.modsram.config import ModSRAMConfig

__all__ = ["AreaParameters", "AreaBreakdown", "AreaModel", "PAPER_AREA_MM2"]

#: Total macro area reported by the paper (mm², 65 nm, 64 x 256).
PAPER_AREA_MM2 = 0.053

#: Breakdown percentages reported in Figure 5.
PAPER_BREAKDOWN_PERCENT = {
    "sram_array": 67.0,
    "in_memory_circuit": 20.0,
    "near_memory_circuit": 11.0,
    "decoder": 2.0,
}

#: Area overhead over a plain SRAM macro of the same capacity (§5.3).
PAPER_AREA_OVERHEAD_PERCENT = 32.0


@dataclass(frozen=True)
class AreaParameters:
    """Per-component layout areas (µm², 65 nm full-custom / synthesized)."""

    #: One 8T bit cell: a 6T storage core plus a decoupled read port.
    cell_area_um2: float = 2.165
    sense_amp_area_um2: float = 13.45
    column_mux_area_um2: float = 0.45
    #: Effective area per near-memory register bit (latch-based register
    #: file, synthesised); calibrated against the Figure 5 breakdown.
    flipflop_area_um2: float = 4.1
    nand2_area_um2: float = 1.44
    wordline_driver_area_um2: float = 3.1
    #: NAND2-equivalent gates of the Booth encoder, overflow logic, shifters
    #: (per register bit) and the controller FSM.
    booth_encoder_gates: int = 18
    overflow_logic_gates: int = 26
    shifter_gates_per_bit: int = 2
    controller_gates: int = 420

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    def scaled_to(self, technology_nm: int, reference_nm: int = 65) -> "AreaParameters":
        """Scale every area quadratically with the technology node."""
        if technology_nm <= 0:
            raise ConfigurationError(
                f"technology node must be positive, got {technology_nm}"
            )
        factor = (technology_nm / reference_nm) ** 2
        return AreaParameters(
            cell_area_um2=self.cell_area_um2 * factor,
            sense_amp_area_um2=self.sense_amp_area_um2 * factor,
            column_mux_area_um2=self.column_mux_area_um2 * factor,
            flipflop_area_um2=self.flipflop_area_um2 * factor,
            nand2_area_um2=self.nand2_area_um2 * factor,
            wordline_driver_area_um2=self.wordline_driver_area_um2 * factor,
            booth_encoder_gates=self.booth_encoder_gates,
            overflow_logic_gates=self.overflow_logic_gates,
            shifter_gates_per_bit=self.shifter_gates_per_bit,
            controller_gates=self.controller_gates,
        )


@dataclass(frozen=True)
class AreaBreakdown:
    """Component areas in mm² plus derived summary figures."""

    sram_array_mm2: float
    in_memory_circuit_mm2: float
    near_memory_circuit_mm2: float
    decoder_mm2: float

    @property
    def total_mm2(self) -> float:
        """Total macro area."""
        return (
            self.sram_array_mm2
            + self.in_memory_circuit_mm2
            + self.near_memory_circuit_mm2
            + self.decoder_mm2
        )

    @property
    def percentages(self) -> Dict[str, float]:
        """Per-component share of the total, in percent (Figure 5)."""
        total = self.total_mm2
        return {
            "sram_array": 100.0 * self.sram_array_mm2 / total,
            "in_memory_circuit": 100.0 * self.in_memory_circuit_mm2 / total,
            "near_memory_circuit": 100.0 * self.near_memory_circuit_mm2 / total,
            "decoder": 100.0 * self.decoder_mm2 / total,
        }

    def as_dict(self) -> Dict[str, float]:
        """Areas plus total for the analysis layer."""
        return {
            "sram_array_mm2": self.sram_array_mm2,
            "in_memory_circuit_mm2": self.in_memory_circuit_mm2,
            "near_memory_circuit_mm2": self.near_memory_circuit_mm2,
            "decoder_mm2": self.decoder_mm2,
            "total_mm2": self.total_mm2,
        }


class AreaModel:
    """Computes the macro area of a :class:`ModSRAMConfig`."""

    def __init__(
        self,
        config: ModSRAMConfig,
        parameters: AreaParameters = AreaParameters(),
    ) -> None:
        self.config = config
        self.parameters = (
            parameters
            if config.technology_nm == 65
            else parameters.scaled_to(config.technology_nm)
        )

    # ------------------------------------------------------------------ #
    # component areas
    # ------------------------------------------------------------------ #
    def sram_array_area_um2(self) -> float:
        """Area of the cell array."""
        return self.parameters.cell_area_um2 * self.config.rows * self.config.columns

    def in_memory_circuit_area_um2(self) -> float:
        """Area of the logic-SA block: three SAs and a mux per read bitline."""
        per_column = (
            3 * self.parameters.sense_amp_area_um2 + self.parameters.column_mux_area_um2
        )
        return per_column * self.config.columns

    def near_memory_circuit_area_um2(self) -> float:
        """Area of the NMC: registers, shifters, encoder, overflow logic, controller."""
        register_bits = self.config.bitwidth + 2 * self.config.register_width + 8
        registers = register_bits * self.parameters.flipflop_area_um2
        shifters = (
            2
            * self.config.register_width
            * self.parameters.shifter_gates_per_bit
            * self.parameters.nand2_area_um2
        )
        logic_gates = (
            self.parameters.booth_encoder_gates
            + self.parameters.overflow_logic_gates
            + self.parameters.controller_gates
        )
        logic = logic_gates * self.parameters.nand2_area_um2
        return registers + shifters + logic

    def decoder_area_um2(self) -> float:
        """Area of the read and write word-line decoders and drivers."""
        # Two decoders (RWL is triple-ported); drivers on every word line.
        driver_area = 3 * self.config.rows * self.parameters.wordline_driver_area_um2
        gate_count = 2 * self.config.rows * 6  # predecode + final AND per WL
        return driver_area + gate_count * self.parameters.nand2_area_um2 * 0.5

    # ------------------------------------------------------------------ #
    # reports
    # ------------------------------------------------------------------ #
    def breakdown(self) -> AreaBreakdown:
        """Full breakdown in mm² (Figure 5)."""
        return AreaBreakdown(
            sram_array_mm2=self.sram_array_area_um2() * 1e-6,
            in_memory_circuit_mm2=self.in_memory_circuit_area_um2() * 1e-6,
            near_memory_circuit_mm2=self.near_memory_circuit_area_um2() * 1e-6,
            decoder_mm2=self.decoder_area_um2() * 1e-6,
        )

    def total_mm2(self) -> float:
        """Total macro area in mm²."""
        return self.breakdown().total_mm2

    def baseline_sram_mm2(self) -> float:
        """Area of a plain SRAM macro with the same capacity.

        A conventional macro already contains the cell array, one sense
        amplifier per column and a single word-line decoder; the PIM overhead
        (two extra SAs per column, the mux, the NMC and the second decoder)
        is measured against this baseline, giving the paper's 32 % figure.
        """
        array = self.sram_array_area_um2()
        sense = self.config.columns * self.parameters.sense_amp_area_um2
        decoder = self.decoder_area_um2() / 2.0
        return (array + sense + decoder) * 1e-6

    def overhead_percent(self) -> float:
        """PIM area overhead over the plain SRAM baseline (§5.3, ≈32 %)."""
        baseline = self.baseline_sram_mm2()
        return 100.0 * (self.total_mm2() - baseline) / baseline
