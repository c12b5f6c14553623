"""BP-NTT (Zhang et al., 2023) — bit-parallel 6T SRAM PIM with Montgomery.

BP-NTT improves on MeNTT by processing operand words bit-parallel and using
Montgomery multiplication to avoid carry propagation inside the NTT
butterfly.  The paper scales its per-multiplication cost to 256 bits as
1465 cycles (Table 3) and criticises the hidden cost: the operands must
already be in Montgomery form, and the transformation cost stops being
negligible at ECC bitwidths.

The cycle model here is a two-parameter fit (``5 n + 185``) through the
published scaled point, structured as ``n`` bit-parallel Montgomery
iterations of five array operations each plus a fixed transform/reduction
overhead.  It is a fit, not a derivation.
"""

from __future__ import annotations

from repro.baselines.base import PimDesignSpec, register_design

__all__ = ["bpntt_cycles", "bpntt_rows", "bpntt_transform_cycles", "BPNTT"]

#: Array operations per Montgomery iteration in the bit-parallel scheme.
_CYCLES_PER_ITERATION = 5
#: Fixed overhead (operand staging, final reduction) of one multiplication.
_FIXED_OVERHEAD_CYCLES = 185


def bpntt_cycles(bitwidth: int) -> int:
    """Scaled cycles of one bit-parallel Montgomery multiplication."""
    return _CYCLES_PER_ITERATION * bitwidth + _FIXED_OVERHEAD_CYCLES


def bpntt_transform_cycles(bitwidth: int) -> int:
    """Extra cycles to move one operand into (or out of) Montgomery form.

    BP-NTT assumes the Montgomery-form operands are precomputed; the paper's
    §5.4 argues this cost stops being negligible as the bitwidth grows.  The
    conversion is itself one Montgomery multiplication (by ``R² mod p``).
    """
    return bpntt_cycles(bitwidth)


def bpntt_rows(bitwidth: int) -> int:
    """Rows holding one multiplication's working set in the bit-parallel layout.

    Operands are spread bit-parallel across word lines; the working set is
    the two operands, the modulus, the Montgomery constant and two
    double-width intermediates — constant in row count (the *width* is what
    grows), matching the 256-wide / handful-of-rows organisation sketched in
    Figure 6.
    """
    del bitwidth  # the row count is width-independent in this layout
    return 6


BPNTT = register_design(
    PimDesignSpec(
        key="bpntt",
        label="BP-NTT",
        application="PQC NTT",
        computation_method="Montgomery",
        technology_nm=45,
        cell_type="6T SRAM",
        array_size="4x256x256",
        frequency_mhz=3800.0,
        native_bitwidths=(2, 4, 8, 16, 32, 64),
        area_mm2=0.063,
        reference="Zhang et al., arXiv:2303.00173, 2023",
        cycle_model=bpntt_cycles,
        row_model=bpntt_rows,
        notes=(
            "Bit-parallel Montgomery multiplication; assumes operands are "
            "already in Montgomery form (transformation cost excluded)."
        ),
    )
)
