"""Zero-knowledge-proof kernels: NTT, MSM and their operation-count models."""

from repro.zkp.msm import (
    MsmStatistics,
    default_window_bits,
    msm_naive,
    msm_pippenger,
)
from repro.zkp.ntt import NttContext, bit_reverse_indices, find_root_of_unity
from repro.zkp.opcount import (
    PAPER_FIGURE7_BITWIDTH,
    PAPER_FIGURE7_VECTOR_SIZE,
    OperationCounts,
    msm_operation_counts,
    msm_point_additions,
    ntt_operation_counts,
)

__all__ = [
    "MsmStatistics",
    "NttContext",
    "OperationCounts",
    "PAPER_FIGURE7_BITWIDTH",
    "PAPER_FIGURE7_VECTOR_SIZE",
    "bit_reverse_indices",
    "default_window_bits",
    "find_root_of_unity",
    "msm_naive",
    "msm_operation_counts",
    "msm_pippenger",
    "msm_point_additions",
    "ntt_operation_counts",
]
