"""ReRAM PIM baselines of Table 3: RM-NTT, CryptoPIM and X-Poly.

The three ReRAM designs compute modular multiplication with reduction
*after* a full (analogue, crossbar-based) multiplication, so the paper's
Table 3 carries no per-multiplication cycle count for them; what it reports
— and what these specs capture — is the application, reduction method,
technology, array organisation, frequency, native bitwidths and area, plus
the qualitative criticism of §5.4 (more than 70 % of the RM-NTT / X-Poly
area is analogue-to-digital converters, and CryptoPIM restricts the modulus
to a few friendly values).
"""

from __future__ import annotations

from repro.baselines.base import PimDesignSpec, register_design

__all__ = ["RMNTT", "CRYPTOPIM", "XPOLY"]

RMNTT = register_design(
    PimDesignSpec(
        key="rm-ntt",
        label="RM-NTT",
        application="HE NTT",
        computation_method="Montgomery",
        technology_nm=28,
        cell_type="ReRAM",
        array_size="64x4x128x128",
        frequency_mhz=400.0,
        native_bitwidths=(14, 16),
        area_mm2=None,
        reference="Park et al., IEEE JxCDC 8(2), 2022",
        cycle_model=None,
        row_model=None,
        notes=(
            "Crossbar compute-in-memory with reduction after multiplication; "
            "no per-multiplication cycle count; ADC-dominated area."
        ),
    )
)

CRYPTOPIM = register_design(
    PimDesignSpec(
        key="cryptopim",
        label="CryptoPIM",
        application="PQC NTT",
        computation_method="Montgomery/Barrett",
        technology_nm=45,
        cell_type="ReRAM",
        array_size="512x512",
        frequency_mhz=909.0,
        native_bitwidths=(16, 32),
        area_mm2=0.152,
        reference="Nejatollahi et al., DAC 2020",
        cycle_model=None,
        row_model=None,
        notes=(
            "Supports only a small set of friendly moduli, which simplifies "
            "reduction but limits generality (§5.4)."
        ),
    )
)

XPOLY = register_design(
    PimDesignSpec(
        key="x-poly",
        label="X-Poly",
        application="PQC NTT",
        computation_method="Barrett",
        technology_nm=45,
        cell_type="ReRAM",
        array_size="16x128x128",
        frequency_mhz=400.0,
        native_bitwidths=(16,),
        area_mm2=0.27,
        reference="Li et al., arXiv:2307.14557, 2023",
        cycle_model=None,
        row_model=None,
        notes=(
            "Takes the modulus as an input (general), evaluated only in a "
            "simulator; ADCs occupy more than 70% of the architecture."
        ),
    )
)
