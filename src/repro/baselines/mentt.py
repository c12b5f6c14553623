"""MeNTT (Li et al., TVLSI 2022) — bit-serial 6T SRAM PIM for PQC NTT.

MeNTT is the main quantitative baseline of the paper: its bit-serial
modular multiplication needs ``(n+1)**2`` cycles once scaled to an ``n``-bit
operand (66 049 cycles at 256 bits — Table 3), and because operands are
stored *along a bitline* the row requirement grows linearly with the
bitwidth (the paper quotes 1282 rows at 256 bits, §5.4), which is why the
approach cannot scale from the 14/16-bit PQC fields it was built for to ECC
field sizes.
"""

from __future__ import annotations

from repro.baselines.base import PimDesignSpec, register_design
from repro.core.complexity import cycles_mentt_bit_serial

__all__ = ["mentt_rows", "MENTT"]


def mentt_rows(bitwidth: int) -> int:
    """Rows needed when every operand and intermediate lives on one bitline.

    The bit-serial layout keeps the multiplier, multiplicand, modulus and
    the double-width partial result stacked along the bitline: ``5n + 2``
    rows, i.e. 1282 rows for 256-bit operands — the paper's argument for
    why the layout "is impractical for an SRAM bank" at ECC bitwidths.
    """
    return 5 * bitwidth + 2


MENTT = register_design(
    PimDesignSpec(
        key="mentt",
        label="MeNTT",
        application="PQC NTT",
        computation_method="direct",
        technology_nm=65,
        cell_type="6T SRAM",
        array_size="4x162x256",
        frequency_mhz=151.0,
        native_bitwidths=(14, 16, 32),
        area_mm2=0.36,
        reference="Li et al., IEEE TVLSI 30(5), 2022",
        cycle_model=cycles_mentt_bit_serial,
        row_model=mentt_rows,
        notes=(
            "Bit-serial access pattern: operands stored along bitlines, "
            "cycles and rows scale quadratically/linearly with bitwidth."
        ),
    )
)
