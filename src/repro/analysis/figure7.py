"""Figure 7: operation counts of the ZKP components (NTT and MSM).

The paper's closing argument is that ZKP workloads at realistic sizes
(input vectors of 2**15 elements, 256-bit operands) perform enormous numbers
of modular multiplications, memory accesses and intermediate register
writes, and that computing the multiplications in-SRAM removes the latter
two categories.  The reproduction evaluates the closed-form operation-count
models at the paper's operating point; it runs no kernel.
``tests/zkp/test_msm_opcount.py`` checks the NTT model against the
instrumented transform's counts.

Registered as experiment ``figure7`` in :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.tables import render_table
from repro.zkp.opcount import (
    PAPER_FIGURE7_BITWIDTH,
    PAPER_FIGURE7_VECTOR_SIZE,
    OperationCounts,
    msm_operation_counts,
    ntt_operation_counts,
)

__all__ = ["Figure7Result", "reproduce_figure7"]


@dataclass(frozen=True)
class Figure7Result:
    """Operation counts of the two kernels at the paper's operating point."""

    vector_size: int
    bitwidth: int
    ntt: OperationCounts
    msm: OperationCounts

    def rows(self) -> List[List[object]]:
        """One row per (kernel, operation) pair, as plotted in Figure 7."""
        table = []
        for kernel, counts in (("NTT", self.ntt), ("MSM", self.msm)):
            for operation, value in counts.as_dict().items():
                table.append([kernel, operation.replace("_", " "), value])
        return table

    def render(self) -> str:
        """The figure's data as text."""
        return render_table(
            ("component", "operation", "count"),
            self.rows(),
            title=(
                "Figure 7: ZKP component operation counts "
                f"(vector size 2^{self.vector_size.bit_length() - 1}, "
                f"{self.bitwidth}-bit operands)"
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        def counts_dict(counts: OperationCounts) -> Dict[str, object]:
            return {
                "kernel": counts.kernel,
                "vector_size": counts.vector_size,
                "bitwidth": counts.bitwidth,
                "modular_multiplications": counts.modular_multiplications,
                "memory_accesses": counts.memory_accesses,
                "register_writes": counts.register_writes,
            }

        return {
            "vector_size": self.vector_size,
            "bitwidth": self.bitwidth,
            "ntt": counts_dict(self.ntt),
            "msm": counts_dict(self.msm),
        }


def reproduce_figure7(
    vector_size: int = PAPER_FIGURE7_VECTOR_SIZE,
    bitwidth: int = PAPER_FIGURE7_BITWIDTH,
    msm_window_bits: int = 16,
) -> Figure7Result:
    """Reproduce Figure 7 at the requested operating point."""
    return Figure7Result(
        vector_size=vector_size,
        bitwidth=bitwidth,
        ntt=ntt_operation_counts(vector_size, bitwidth),
        msm=msm_operation_counts(vector_size, bitwidth, window_bits=msm_window_bits),
    )
