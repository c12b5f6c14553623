"""ModSRAM macro configuration.

The default configuration is the design point evaluated in the paper: a
64 × 256 array of 8T cells in 65 nm, computing 256-bit modular
multiplications at ~420 MHz.  Every field is overridable so the examples and
the design-space exploration can sweep bitwidth, array geometry and technology.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.booth import booth_digit_count
from repro.core.complexity import r4csa_lut_main_loop
from repro.errors import ConfigurationError
from repro.sram.cell import EightTransistorCell, SramCell
from repro.sram.energy import EnergyModel
from repro.sram.sense_amp import SenseAmpParameters
from repro.sram.timing import TimingModel

__all__ = ["ModSRAMConfig", "PAPER_CONFIG", "build_design_config"]

#: Rows consumed by the two precomputation LUTs: 5 (radix-4) + 8 (overflow).
RADIX4_LUT_ROWS = 5
OVERFLOW_LUT_ROWS = 8
INTERMEDIATE_ROWS = 2
MINIMUM_OPERAND_ROWS = 3  # multiplier, multiplicand, modulus


@dataclass(frozen=True)
class ModSRAMConfig:
    """Static parameters of one ModSRAM macro.

    Attributes
    ----------
    bitwidth:
        Operand width ``n`` in bits (the paper targets 256 for ECC).
    rows / columns:
        SRAM array geometry.  ``columns`` must be at least ``bitwidth`` and
        ``rows`` must fit the memory map (operands + LUTs + intermediates).
    technology_nm:
        Process node used by the timing/area/energy models.
    cell:
        Bit-cell model; the design requires a cell that tolerates
        three simultaneously activated read word lines (the 8T cell).
    extend_for_full_range:
        When ``True`` (default) the Booth recoding uses one extra digit so
        any operand below the modulus multiplies correctly (needed for
        full-range 256-bit moduli such as secp256k1).  When ``False`` the
        paper's ``n/2`` iteration count is used, which requires the
        multiplier's top bit to be clear (BN254-style moduli).
    timing / energy / sense:
        Sub-models; defaults are the calibrated 65 nm values.  ``sense``
        needs at least three sense amplifiers per bitline, one per
        activated row.
    """

    bitwidth: int = 256
    rows: int = 64
    columns: int = 256
    technology_nm: int = 65
    cell: SramCell = EightTransistorCell
    extend_for_full_range: bool = True
    timing: TimingModel = field(default_factory=TimingModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    sense: SenseAmpParameters = field(default_factory=SenseAmpParameters)

    def __post_init__(self) -> None:
        if self.bitwidth < 4:
            raise ConfigurationError(
                f"bitwidth must be at least 4 bits, got {self.bitwidth}"
            )
        if self.columns < self.bitwidth:
            raise ConfigurationError(
                f"the array needs at least one column per operand bit: "
                f"columns={self.columns} < bitwidth={self.bitwidth}"
            )
        if self.rows < self.minimum_rows:
            raise ConfigurationError(
                f"{self.rows} rows cannot hold the memory map; at least "
                f"{self.minimum_rows} are required "
                f"(operands {MINIMUM_OPERAND_ROWS}, LUTs "
                f"{RADIX4_LUT_ROWS + OVERFLOW_LUT_ROWS}, intermediates "
                f"{INTERMEDIATE_ROWS})"
            )
        if self.cell.max_simultaneous_reads < 3:
            raise ConfigurationError(
                f"the logic-SA scheme activates 3 rows per access but a "
                f"{self.cell.name} cell only tolerates "
                f"{self.cell.max_simultaneous_reads}"
            )
        if self.sense.sense_amps_per_bitline < 3:
            raise ConfigurationError(
                f"the logic-SA scheme activates 3 rows per access but "
                f"{self.sense.sense_amps_per_bitline} sense amplifier(s) per "
                f"bitline only count up to {self.sense.sense_amps_per_bitline}"
            )
        if self.technology_nm <= 0:
            raise ConfigurationError(
                f"technology node must be positive, got {self.technology_nm}"
            )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def register_width(self) -> int:
        """Width of the redundant sum/carry registers (``n + 1`` bits)."""
        return self.bitwidth + 1

    @property
    def lut_rows(self) -> int:
        """Word lines dedicated to the two precomputation LUTs (13)."""
        return RADIX4_LUT_ROWS + OVERFLOW_LUT_ROWS

    @property
    def minimum_rows(self) -> int:
        """Smallest array that can hold the memory map."""
        return MINIMUM_OPERAND_ROWS + self.lut_rows + INTERMEDIATE_ROWS

    @property
    def operand_capacity(self) -> int:
        """Rows left over for operands once LUTs and intermediates are placed."""
        return self.rows - self.lut_rows - INTERMEDIATE_ROWS

    @property
    def iterations(self) -> int:
        """Main-loop iterations for one multiplication (radix-4 digits)."""
        return booth_digit_count(self.bitwidth, self.extend_for_full_range)

    @property
    def expected_iteration_cycles(self) -> int:
        """Array cycles of the main loop (six per iteration, last write elided)."""
        return r4csa_lut_main_loop(self.iterations)

    @property
    def frequency_mhz(self) -> float:
        """Clock frequency implied by the timing model."""
        return self.timing.frequency_mhz

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    def with_bitwidth(
        self, bitwidth: int, columns: Optional[int] = None
    ) -> "ModSRAMConfig":
        """A copy targeting a different operand width.

        Unless given explicitly, the column count follows the bitwidth (the
        macro is sized to its operands, as in the paper's design).
        """
        return replace(self, bitwidth=bitwidth, columns=columns or bitwidth)


#: The exact design point of the paper's evaluation (§5): 64 × 256, 8T,
#: 65 nm, 256-bit operands, n/2 iterations → 767 main-loop cycles.
PAPER_CONFIG = ModSRAMConfig(extend_for_full_range=False)


def build_design_config(
    bitwidth: int = 256,
    rows: Optional[int] = None,
    technology_nm: int = 65,
    columns: Optional[int] = None,
) -> ModSRAMConfig:
    """A paper-schedule configuration at the requested design point."""
    config = PAPER_CONFIG.with_bitwidth(bitwidth, columns=columns)
    if rows is not None:
        config = replace(config, rows=rows)
    if technology_nm != config.technology_nm:
        config = replace(
            config,
            technology_nm=technology_nm,
            timing=config.timing.scaled_to(technology_nm),
        )
    return config
