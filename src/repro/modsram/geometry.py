"""First-class macro geometry for the analytical cost algebra.

The paper evaluates one design point — a 64 × 256 single-bank array with a
radix-4 Booth recoding and an 8-row overflow LUT — and until this module the
analytical tier hard-coded those constants.  :class:`MacroGeometry` lifts
them into a value object the cost model takes as a constructor parameter, so
the design-space exploration layer (:mod:`repro.dse`) can sweep rows, column
width, banking, radix and LUT sizing without touching the algebra itself.

The default geometry reproduces the paper's constants exactly: with
``MacroGeometry()`` every cycle count the cost model emits is identical to
the pre-refactor closed forms (767 main-loop cycles at the paper point).

Only the *closed-form* cost model understands every geometry; the
executable tiers (analytical, cycle, hdl) implement the paper's radix-4,
single-bank macro with an 8-row overflow LUT and reject anything else
(:meth:`MacroGeometry.check_executable`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.booth import booth_digit_count
from repro.errors import ConfigurationError
from repro.modsram.config import (
    INTERMEDIATE_ROWS,
    MINIMUM_OPERAND_ROWS,
    OVERFLOW_LUT_ROWS,
    ModSRAMConfig,
)

__all__ = ["MacroGeometry", "SUPPORTED_RADICES"]

#: Booth recodings the closed-form algebra models (one digit per loop
#: iteration; the executable kernel implements radix 4 only).
SUPPORTED_RADICES = (2, 4, 8, 16)

#: The geometry fields the executable tiers fix, and their only values.
_EXECUTABLE_FIELDS = dict(radix=4, banks=1, overflow_rows=OVERFLOW_LUT_ROWS)


@dataclass(frozen=True)
class MacroGeometry:
    """Array shape and recoding parameters of one ModSRAM macro.

    Attributes
    ----------
    rows / columns:
        SRAM array geometry (word lines × bit lines).
    banks:
        Independently addressable sub-arrays.  Banking parallelises bulk
        row *writes* (operand load and LUT fill) ``banks`` ways; the main
        loop is a serial recurrence and gains nothing, so the paper's
        767-cycle figure is bank-invariant.
    radix:
        Booth recoding radix.  One digit is retired per main-loop
        iteration, so higher radices shorten the loop but enlarge the
        precomputed-multiple LUT (``radix + 1`` rows).
    overflow_rows:
        Word lines of the overflow-fold LUT (the paper sizes it at 8).
    """

    rows: int = 64
    columns: int = 256
    banks: int = 1
    radix: int = 4
    overflow_rows: int = OVERFLOW_LUT_ROWS

    def __post_init__(self) -> None:
        for name in ("rows", "columns", "banks", "overflow_rows"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"geometry field {name!r} must be an integer, "
                    f"got {value!r}"
                )
        if self.radix not in SUPPORTED_RADICES:
            raise ConfigurationError(
                f"geometry field 'radix' must be one of "
                f"{SUPPORTED_RADICES}, got {self.radix!r}"
            )
        if self.columns < 4:
            raise ConfigurationError(
                f"geometry field 'columns' must be at least 4, "
                f"got {self.columns}"
            )
        if self.banks < 1:
            raise ConfigurationError(
                f"geometry field 'banks' must be at least 1, got {self.banks}"
            )
        if self.rows < 1:
            raise ConfigurationError(
                f"geometry field 'rows' must be positive, got {self.rows}"
            )
        if self.rows % self.banks != 0:
            raise ConfigurationError(
                f"geometry field 'banks' must divide rows evenly: "
                f"rows={self.rows} % banks={self.banks} != 0"
            )
        if self.overflow_rows < 2:
            raise ConfigurationError(
                f"geometry field 'overflow_rows' must be at least 2, "
                f"got {self.overflow_rows}"
            )
        if self.rows < self.minimum_rows:
            raise ConfigurationError(
                f"geometry field 'rows' is too small for the memory map: "
                f"{self.rows} < {self.minimum_rows} (operands "
                f"{MINIMUM_OPERAND_ROWS}, LUTs {self.lut_rows}, "
                f"intermediates {INTERMEDIATE_ROWS})"
            )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def digit_bits(self) -> int:
        """Multiplier bits retired per main-loop iteration (log2 radix)."""
        return self.radix.bit_length() - 1

    @property
    def radix_rows(self) -> int:
        """Word lines of the precomputed-multiple LUT (``radix + 1``)."""
        return self.radix + 1

    @property
    def computed_radix_entries(self) -> int:
        """LUT entries needing near-memory computation (0 and B are free)."""
        return self.radix_rows - 2

    @property
    def lut_rows(self) -> int:
        """Total word lines dedicated to the two precomputation LUTs."""
        return self.radix_rows + self.overflow_rows

    @property
    def minimum_rows(self) -> int:
        """Smallest array that can hold this geometry's memory map."""
        return MINIMUM_OPERAND_ROWS + self.lut_rows + INTERMEDIATE_ROWS

    def iterations(self, bitwidth: int, extend_for_full_range: bool) -> int:
        """Main-loop iterations for one ``bitwidth``-bit multiplication.

        The Booth digit count (:func:`~repro.core.booth.booth_digit_count`)
        at this geometry's radix: the paper's ``n/2`` at radix 4, one more
        digit in full range when the bitwidth is a multiple of the digit
        width.
        """
        return booth_digit_count(bitwidth, extend_for_full_range, self.digit_bits)

    def check_executable(self) -> None:
        """Raise unless the executable tiers can run this geometry.

        They implement the paper's macro: radix-4 Booth digits, one bank
        and an 8-row overflow LUT.  The error names the first field that
        differs.
        """
        for name, executable in _EXECUTABLE_FIELDS.items():
            value = getattr(self, name)
            if value != executable:
                raise ConfigurationError(
                    f"the executable tiers need geometry field {name!r} = "
                    f"{executable}, got {value}; other values are "
                    f"closed-form only"
                )

    def write_burst_cycles(self, row_writes: int) -> int:
        """Cycles to issue ``row_writes`` independent row writes.

        Banking overlaps bulk writes across sub-arrays; a single bank
        issues one write per cycle (the paper's schedule).
        """
        if row_writes <= 0:
            return 0
        return -(-row_writes // self.banks)  # ceil division

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ModSRAMConfig) -> "MacroGeometry":
        """The geometry a :class:`ModSRAMConfig` implies (paper constants)."""
        return cls(rows=config.rows, columns=config.columns)

    def apply_to(self, config: ModSRAMConfig) -> ModSRAMConfig:
        """A config copy whose array shape matches this geometry.

        Raises :class:`ConfigurationError` (naming ``columns``) when the
        geometry cannot hold the config's operand width.
        """
        if self.columns < config.bitwidth:
            raise ConfigurationError(
                f"geometry field 'columns' must cover the operand width: "
                f"columns={self.columns} < bitwidth={config.bitwidth}"
            )
        return replace(config, rows=self.rows, columns=self.columns)

    def as_dict(self) -> dict:
        """JSON-clean field mapping (inverse of ``MacroGeometry(**d)``)."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "banks": self.banks,
            "radix": self.radix,
            "overflow_rows": self.overflow_rows,
        }


def _default_geometry(
    config: ModSRAMConfig, geometry: Optional[MacroGeometry]
) -> MacroGeometry:
    """Resolve an optional geometry argument against a config's shape."""
    return geometry if geometry is not None else MacroGeometry.from_config(config)
