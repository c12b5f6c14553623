"""Closed-form operation-count models for the ZKP kernels (Figure 7).

Figure 7 of the paper illustrates, for an input vector of size 2**15 and
256-bit operands, how many modular multiplications, memory accesses and
register writes the two dominant ZKP components (NTT and MSM) perform —
the point being that ModSRAM removes the intermediate register writes and
memory traffic of every modular multiplication by keeping the redundant
accumulator inside the array.

A 2**15-point MSM over a 254-bit field is too expensive to execute in pure
Python, so the figure is regenerated from the closed-form models below.
They are not free parameters: the same formulas are validated against the
*instrumented* NTT and Pippenger implementations at small sizes by the test
suite, and then evaluated at the paper's operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import OperandRangeError

__all__ = [
    "OperationCounts",
    "ntt_operation_counts",
    "msm_operation_counts",
    "PAPER_FIGURE7_VECTOR_SIZE",
    "PAPER_FIGURE7_BITWIDTH",
]

#: The operating point of Figure 7.
PAPER_FIGURE7_VECTOR_SIZE = 2**15
PAPER_FIGURE7_BITWIDTH = 256

#: Field multiplications of one mixed Jacobian addition (8M + 3S).
MULS_PER_MIXED_ADDITION = 11
#: Field multiplications of one general Jacobian addition (12M + 4S).
MULS_PER_GENERAL_ADDITION = 16
#: Field multiplications of one Jacobian doubling (4M + 4S, a = 0 curves).
MULS_PER_DOUBLING = 8
#: Field-element reads/writes of one point addition (inputs + outputs).
VALUE_ACCESSES_PER_POINT_ADD = 12

# The conventional (non-PIM) datapath both kernels are costed on, and the
# one the instrumented ``NttContext`` charges: a word-serial multiplier on
# 32-bit words, and an NTT butterfly that reads two coefficients and a
# twiddle factor and writes two results.
_WORD_BITS = 32
_VALUE_ACCESSES_PER_BUTTERFLY = 5


@dataclass(frozen=True)
class OperationCounts:
    """Operation counts of one kernel invocation."""

    kernel: str
    vector_size: int
    bitwidth: int
    modular_multiplications: int
    memory_accesses: int
    register_writes: int

    def as_dict(self) -> Dict[str, int]:
        """Counts as a dictionary keyed the way Figure 7 labels them."""
        return {
            "modular_multiplication": self.modular_multiplications,
            "memory_access": self.memory_accesses,
            "register_writes": self.register_writes,
        }


def _words(bitwidth: int) -> int:
    return max(1, -(-bitwidth // _WORD_BITS))


def _register_writes_per_modmul(bitwidth: int) -> int:
    """Working-register updates of one modular multiplication.

    Models a conventional word-serial (CIOS-style) multiplier: two register
    updates per operand word plus a handful of fixed pipeline registers.
    These are exactly the writes ModSRAM eliminates by accumulating in the
    array.
    """
    return 2 * _words(bitwidth) + 4


def ntt_operation_counts(
    vector_size: int = PAPER_FIGURE7_VECTOR_SIZE,
    bitwidth: int = PAPER_FIGURE7_BITWIDTH,
) -> OperationCounts:
    """Operation counts of one forward NTT of ``vector_size`` points.

    The structural counts follow the radix-2 Cooley–Tukey dataflow that
    :class:`repro.zkp.ntt.NttContext` implements (and is validated against):
    ``(N/2) log2 N`` butterflies, each with one twiddle multiplication, five
    value-level memory accesses and the per-multiplication register writes
    of a word-serial datapath.
    """
    if vector_size <= 1 or vector_size & (vector_size - 1):
        raise OperandRangeError(
            f"vector size must be a power of two, got {vector_size}"
        )
    if bitwidth <= 0:
        raise OperandRangeError(f"bitwidth must be positive, got {bitwidth}")
    stages = int(math.log2(vector_size))
    butterflies = (vector_size // 2) * stages
    modmuls = butterflies
    memory_accesses = _VALUE_ACCESSES_PER_BUTTERFLY * butterflies
    register_writes = modmuls * _register_writes_per_modmul(bitwidth)
    return OperationCounts(
        kernel="ntt",
        vector_size=vector_size,
        bitwidth=bitwidth,
        modular_multiplications=modmuls,
        memory_accesses=memory_accesses,
        register_writes=register_writes,
    )


def msm_point_additions(vector_size: int, bitwidth: int, window_bits: int) -> Dict[str, int]:
    """Structural point-operation counts of a bucket-method MSM.

    For every one of the ``ceil(bitwidth / c)`` windows: almost every input
    point lands in a bucket (one mixed addition each), the ``2**c - 1``
    buckets are combined with two general additions per bucket (running-sum
    reduction), and the window results are combined with ``c`` doublings
    plus one addition per window.
    """
    windows = -(-bitwidth // window_bits)
    buckets = (1 << window_bits) - 1
    mixed_additions = windows * vector_size
    general_additions = windows * 2 * buckets + windows
    doublings = windows * window_bits
    return {
        "windows": windows,
        "buckets_per_window": buckets,
        "mixed_additions": mixed_additions,
        "general_additions": general_additions,
        "doublings": doublings,
    }


def msm_operation_counts(
    vector_size: int = PAPER_FIGURE7_VECTOR_SIZE,
    bitwidth: int = PAPER_FIGURE7_BITWIDTH,
    window_bits: int = 16,
) -> OperationCounts:
    """Operation counts of one bucket-method MSM of ``vector_size`` points.

    ``window_bits`` defaults to 16, the window PipeZK's architecture uses at
    this scale.  Field-multiplication costs per point operation use the
    standard Jacobian formulas (8M+3S mixed, 12M+4S general, 4M+4S double).
    """
    if vector_size <= 0:
        raise OperandRangeError(f"vector size must be positive, got {vector_size}")
    if bitwidth <= 0:
        raise OperandRangeError(f"bitwidth must be positive, got {bitwidth}")
    if window_bits <= 0:
        raise OperandRangeError(f"window size must be positive, got {window_bits}")

    structure = msm_point_additions(vector_size, bitwidth, window_bits)
    modmuls = (
        structure["mixed_additions"] * MULS_PER_MIXED_ADDITION
        + structure["general_additions"] * MULS_PER_GENERAL_ADDITION
        + structure["doublings"] * MULS_PER_DOUBLING
    )
    point_operations = (
        structure["mixed_additions"]
        + structure["general_additions"]
        + structure["doublings"]
    )
    words = _words(bitwidth)
    memory_accesses = point_operations * VALUE_ACCESSES_PER_POINT_ADD * words
    register_writes = modmuls * _register_writes_per_modmul(bitwidth)
    return OperationCounts(
        kernel="msm",
        vector_size=vector_size,
        bitwidth=bitwidth,
        modular_multiplications=modmuls,
        memory_accesses=memory_accesses,
        register_writes=register_writes,
    )
