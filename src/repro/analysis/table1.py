"""Reproduction of Tables 1a, 1b and 2 (the algorithm's truth table and LUTs).

These are not evaluation results but definitional tables; regenerating them
from the implementation (rather than hard-coding them) is the check that the
encoder and LUT builders match the paper.

Registered as experiment ``table1`` in :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.booth import encoder_truth_table
from repro.core.luts import build_overflow_lut, build_radix4_lut
from repro.ecc.curves_data import CURVE_SPECS
from repro.tables import render_table

__all__ = ["TableOneResult", "reproduce_tables"]


@dataclass(frozen=True)
class TableOneResult:
    """The three generated tables for a concrete multiplicand/modulus pair."""

    multiplicand: int
    modulus: int
    bitwidth: int
    encoder_rows: List[Tuple[int, int, int, int]]
    radix4_rows: List[Tuple[int, int]]
    overflow_rows: List[Tuple[int, int]]

    def render(self) -> str:
        """All three tables as text."""
        sections = [
            render_table(
                ("a_{i+1}", "a_i", "a_{i-1}", "ENC"),
                self.encoder_rows,
                title="Table 1a: radix-4 Booth encoder",
            ),
            render_table(
                ("ENC", "LUT-radix4 value"),
                [(f"{digit:+d}" if digit else "0", value) for digit, value in self.radix4_rows],
                title=f"Table 1b: radix-4 LUT (B={self.multiplicand:#x})",
            ),
            render_table(
                ("overflow", "LUT-overflow value"),
                self.overflow_rows,
                title="Table 2: carry-overflow LUT",
            ),
        ]
        return "\n\n".join(sections)

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "multiplicand": self.multiplicand,
            "modulus": self.modulus,
            "bitwidth": self.bitwidth,
            "encoder_rows": [list(row) for row in self.encoder_rows],
            "radix4_rows": [list(row) for row in self.radix4_rows],
            "overflow_rows": [list(row) for row in self.overflow_rows],
        }


def reproduce_tables(
    multiplicand: int | None = None, modulus: int | None = None
) -> TableOneResult:
    """Generate Tables 1a/1b/2 for a multiplicand/modulus pair.

    Defaults to a small multiplicand over the BN254 base field so the values
    are meaningful for the paper's target application.
    """
    if modulus is None:
        modulus = CURVE_SPECS["bn254"].field_modulus
    if multiplicand is None:
        multiplicand = 0x1234567890ABCDEF % modulus
    bitwidth = modulus.bit_length()
    radix4 = build_radix4_lut(multiplicand, modulus)
    overflow = build_overflow_lut(modulus, bitwidth + 1, entry_count=8)
    return TableOneResult(
        multiplicand=multiplicand,
        modulus=modulus,
        bitwidth=bitwidth,
        encoder_rows=encoder_truth_table(),
        radix4_rows=radix4.rows(),
        overflow_rows=overflow.paper_rows(),
    )
