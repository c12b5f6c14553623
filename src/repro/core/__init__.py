"""The paper's primary contribution: the R4CSA-LUT algorithm family.

This package contains the radix-4 Booth encoder (Table 1a), the
precomputation LUT builders (Tables 1b and 2), the R4CSA-LUT algorithm
itself (Algorithm 3), every baseline algorithm the paper compares against or
builds on, and the analytic cycle-complexity models behind Figure 1.
"""

from repro.core.algorithms import (
    BarrettMultiplier,
    CsaInterleavedMultiplier,
    InterleavedMultiplier,
    ModularMultiplier,
    MontgomeryMultiplier,
    MultiplierStats,
    R4CSALutContext,
    R4CSALutMultiplier,
    Radix4InterleavedMultiplier,
    SchoolbookMultiplier,
    available_multipliers,
    get_multiplier,
    register_multiplier,
)
from repro.core.booth import (
    RADIX4_ENCODER_TABLE,
    booth_digit_count,
    booth_digit_radix4,
    booth_digits_radix4,
    encoder_truth_table,
)
from repro.core.complexity import (
    COMPLEXITY_MODELS,
    PAPER_FIGURE1_BITWIDTHS,
    complexity_sweep,
    cycles_mentt_bit_serial,
    cycles_r4csa_lut,
)
from repro.core.luts import (
    OverflowLut,
    Radix4Lut,
    build_overflow_lut,
    build_radix4_lut,
)

__all__ = [
    "BarrettMultiplier",
    "COMPLEXITY_MODELS",
    "CsaInterleavedMultiplier",
    "InterleavedMultiplier",
    "ModularMultiplier",
    "MontgomeryMultiplier",
    "MultiplierStats",
    "OverflowLut",
    "PAPER_FIGURE1_BITWIDTHS",
    "R4CSALutContext",
    "R4CSALutMultiplier",
    "RADIX4_ENCODER_TABLE",
    "Radix4InterleavedMultiplier",
    "Radix4Lut",
    "SchoolbookMultiplier",
    "available_multipliers",
    "booth_digit_count",
    "booth_digit_radix4",
    "booth_digits_radix4",
    "build_overflow_lut",
    "build_radix4_lut",
    "complexity_sweep",
    "cycles_mentt_bit_serial",
    "cycles_r4csa_lut",
    "encoder_truth_table",
    "get_multiplier",
    "register_multiplier",
]
