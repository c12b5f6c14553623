"""Modular-multiplication algorithm family.

Importing this package registers every algorithm with the multiplier
registry (:func:`repro.core.algorithms.base.available_multipliers`).
"""

from repro.core.algorithms.base import (
    ModularMultiplier,
    MultiplierStats,
    available_multipliers,
    get_multiplier,
    register_multiplier,
)
from repro.core.algorithms.barrett import BarrettContext, BarrettMultiplier
from repro.core.algorithms.csa_interleaved import CsaInterleavedMultiplier
from repro.core.algorithms.interleaved import InterleavedMultiplier
from repro.core.algorithms.montgomery import MontgomeryContext, MontgomeryMultiplier
from repro.core.algorithms.r4csa_lut import (
    IterationSnapshot,
    R4CSALutContext,
    R4CSALutMultiplier,
)
from repro.core.algorithms.radix4 import Radix4InterleavedMultiplier
from repro.core.algorithms.schoolbook import SchoolbookMultiplier

__all__ = [
    "BarrettContext",
    "BarrettMultiplier",
    "CsaInterleavedMultiplier",
    "InterleavedMultiplier",
    "IterationSnapshot",
    "ModularMultiplier",
    "MontgomeryContext",
    "MontgomeryMultiplier",
    "MultiplierStats",
    "R4CSALutContext",
    "R4CSALutMultiplier",
    "Radix4InterleavedMultiplier",
    "SchoolbookMultiplier",
    "available_multipliers",
    "get_multiplier",
    "register_multiplier",
]
