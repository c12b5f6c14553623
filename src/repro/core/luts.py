"""Precomputation look-up tables (Tables 1b and 2 of the paper).

R4CSA-LUT replaces per-iteration arithmetic with table look-ups:

* **LUT-radix4** (Table 1b) stores the five possible per-digit addends
  ``digit * B mod p`` for ``digit in {0, +1, +2, -2, -1}``.  Only three of
  them require computation (``2B``, ``-B``, ``-2B`` modulo ``p``); the table
  is valid for as long as the multiplicand ``B`` and modulus ``p`` are
  unchanged, which is what lets ModSRAM reuse the SRAM rows across many
  multiplications.

* **LUT-overflow** (Table 2) stores ``k * 2**(n+1) mod p`` for each possible
  overflow field ``k``.  When the redundant accumulator is shifted left by
  two, the bits that fall off the top of the ``n+1``-bit registers carry a
  weight of ``2**(n+1)``; adding the precomputed residue folds them back in
  without any carry propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ModulusError, OperandRangeError

__all__ = [
    "Radix4Lut",
    "OverflowLut",
    "build_radix4_lut",
    "build_overflow_lut",
    "RADIX4_DIGIT_ORDER",
]

#: Row order used by Table 1b of the paper (and by the ModSRAM memory map).
RADIX4_DIGIT_ORDER: Tuple[int, ...] = (0, +1, +2, -2, -1)


def _validate_modulus(modulus: int) -> None:
    if modulus <= 2:
        raise ModulusError(f"modulus must be greater than 2, got {modulus}")


@dataclass(frozen=True)
class Radix4Lut:
    """Table 1b: precomputed ``digit * B mod p`` for the five Booth digits."""

    multiplicand: int
    modulus: int
    entries: Dict[int, int] = field(repr=False)

    def __getitem__(self, digit: int) -> int:
        if digit not in self.entries:
            raise OperandRangeError(
                f"radix-4 digit must be one of {sorted(self.entries)}, got {digit}"
            )
        return self.entries[digit]

    def rows(self) -> List[Tuple[int, int]]:
        """Table rows ``(digit, value)`` in the paper's order (Table 1b)."""
        return [(digit, self.entries[digit]) for digit in RADIX4_DIGIT_ORDER]

    def computed_entry_count(self) -> int:
        """Number of entries that actually need modular computation.

        The paper notes "only three of them need computation": ``0`` is free
        and ``+1`` is just ``B`` itself.
        """
        return sum(1 for digit in self.entries if digit not in (0, +1))


@dataclass(frozen=True)
class OverflowLut:
    """Table 2: precomputed ``k * 2**(n+1) mod p`` for overflow field ``k``."""

    modulus: int
    register_width: int
    entries: Tuple[int, ...] = field(repr=False)

    def __getitem__(self, overflow: int) -> int:
        if not 0 <= overflow < len(self.entries):
            raise OperandRangeError(
                f"overflow index {overflow} outside the generated LUT "
                f"(0..{len(self.entries) - 1})"
            )
        return self.entries[overflow]

    def __len__(self) -> int:
        return len(self.entries)

    def rows(self) -> List[Tuple[int, int]]:
        """Table rows ``(overflow, value)``; the first 8 are the paper's Table 2."""
        return list(enumerate(self.entries))

    def paper_rows(self) -> List[Tuple[int, int]]:
        """Exactly the eight rows of the paper's Table 2 (3-bit overflow)."""
        return self.rows()[:8]


def build_radix4_lut(multiplicand: int, modulus: int) -> Radix4Lut:
    """Build Table 1b for a given multiplicand ``B`` and modulus ``p``.

    All values are fully reduced (``0 <= value < p``), matching the operands
    ModSRAM writes into the LUT word lines.
    """
    _validate_modulus(modulus)
    if not 0 <= multiplicand < modulus:
        raise OperandRangeError(
            f"multiplicand must satisfy 0 <= B < p, got B={multiplicand}, p={modulus}"
        )
    entries = {
        0: 0,
        +1: multiplicand % modulus,
        +2: (2 * multiplicand) % modulus,
        -2: (-2 * multiplicand) % modulus,
        -1: (-multiplicand) % modulus,
    }
    return Radix4Lut(multiplicand=multiplicand, modulus=modulus, entries=entries)


def build_overflow_lut(
    modulus: int, register_width: int, entry_count: int = 8
) -> OverflowLut:
    """Build Table 2 for a modulus and redundant-register width.

    Parameters
    ----------
    modulus:
        The modulus ``p``.
    register_width:
        Width of the sum/carry registers.  The paper uses ``n + 1`` where
        ``n`` is the operand bitwidth; the overflow bits therefore carry a
        weight of ``2**register_width``.
    entry_count:
        Number of LUT rows to generate.  The paper's Table 2 lists 8 rows
        (a 3-bit overflow field); the reproduction generates 16 by default
        where needed so that every overflow index that can transiently occur
        is covered (see the module docstring of
        :mod:`repro.core.algorithms.r4csa_lut`).
    """
    _validate_modulus(modulus)
    if register_width <= 0:
        raise OperandRangeError(
            f"register width must be positive, got {register_width}"
        )
    if entry_count < 1:
        raise OperandRangeError(
            f"entry count must be at least 1, got {entry_count}"
        )
    weight = 1 << register_width
    entries = tuple((k * weight) % modulus for k in range(entry_count))
    return OverflowLut(
        modulus=modulus, register_width=register_width, entries=entries
    )
