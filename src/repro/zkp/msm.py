"""Multi-scalar multiplication (MSM).

MSM — computing ``Σ k_i · P_i`` for thousands of points — is the other
dominant ZKP kernel in Figure 7; PipeZK (the paper's reference for the MSM
operation counts) accelerates it with the bucket (Pippenger) method.  Both a
naive MSM and the bucket method are implemented here over the instrumented
curve layer, so the modular-multiplication, memory-access and register-write
counts of Figure 7 can be measured directly (at small sizes) and the
closed-form model in :mod:`repro.zkp.opcount` can be validated against the
measurements before being evaluated at the paper's ``2**15`` operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.ecc.curve import AffinePoint, EllipticCurve, JacobianPoint
from repro.ecc.scalar import scalar_multiply
from repro.errors import OperandRangeError

__all__ = [
    "MsmStatistics",
    "msm_naive",
    "msm_pippenger",
    "default_window_bits",
]


@dataclass
class MsmStatistics:
    """Structural counts of one bucket-method MSM run."""

    points: int = 0
    windows: int = 0
    window_bits: int = 0
    bucket_additions: int = 0
    bucket_reductions: int = 0
    doublings: int = 0
    point_additions: int = 0


def default_window_bits(point_count: int) -> int:
    """The usual Pippenger window choice ``c ≈ log2(N) - 1`` (at least 2).

    PipeZK uses a fixed 16-bit window for very large instances; for the
    sizes a Python model can execute, the logarithmic rule keeps the bucket
    count proportionate.
    """
    if point_count <= 0:
        raise OperandRangeError(f"point count must be positive, got {point_count}")
    if point_count < 4:
        return 2
    return max(2, int(math.log2(point_count)) - 1)


def msm_naive(
    curve: EllipticCurve, scalars: Sequence[int], points: Sequence[AffinePoint]
) -> AffinePoint:
    """Reference MSM: independent scalar multiplications, then a sum."""
    if len(scalars) != len(points):
        raise OperandRangeError(
            f"scalar/point count mismatch: {len(scalars)} vs {len(points)}"
        )
    accumulator = curve.infinity()
    for scalar, point in zip(scalars, points):
        accumulator = curve.add(accumulator, scalar_multiply(curve, scalar, point))
    return accumulator


def msm_pippenger(
    curve: EllipticCurve,
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    window_bits: Optional[int] = None,
    statistics: Optional[MsmStatistics] = None,
) -> AffinePoint:
    """Bucket-method MSM (Pippenger), the algorithm PipeZK accelerates.

    The scalars are cut into ``ceil(bits / c)`` windows of ``c`` bits; for
    each window every point is added into the bucket selected by its window
    digit, the buckets are combined with a running-sum reduction, and the
    per-window results are combined with ``c`` doublings per window.
    """
    if len(scalars) != len(points):
        raise OperandRangeError(
            f"scalar/point count mismatch: {len(scalars)} vs {len(points)}"
        )
    if not scalars:
        return curve.infinity()
    for scalar in scalars:
        if scalar < 0:
            raise OperandRangeError(f"scalars must be non-negative, got {scalar}")

    c = window_bits or default_window_bits(len(points))
    if c < 1:
        raise OperandRangeError(f"window size must be positive, got {c}")
    scalar_bits = max(max(scalars).bit_length(), 1)
    window_count = -(-scalar_bits // c)
    bucket_count = (1 << c) - 1

    stats = statistics if statistics is not None else MsmStatistics()
    stats.points = len(points)
    stats.windows = window_count
    stats.window_bits = c

    infinity = curve.to_jacobian(curve.infinity())
    window_sums: List[JacobianPoint] = []

    for window_index in range(window_count):
        shift = window_index * c
        buckets: List[Optional[JacobianPoint]] = [None] * bucket_count
        for scalar, point in zip(scalars, points):
            digit = (scalar >> shift) & ((1 << c) - 1)
            if digit == 0:
                continue
            slot = digit - 1
            if buckets[slot] is None:
                buckets[slot] = curve.to_jacobian(point)
            else:
                buckets[slot] = curve.jacobian_add_mixed(buckets[slot], point)
                stats.bucket_additions += 1
                stats.point_additions += 1

        # Running-sum reduction: sum_{d} d * bucket_d with 2 * buckets adds.
        running = infinity
        window_total = infinity
        for slot in range(bucket_count - 1, -1, -1):
            bucket = buckets[slot]
            if bucket is not None:
                running = curve.jacobian_add(running, bucket)
                stats.bucket_reductions += 1
                stats.point_additions += 1
            window_total = curve.jacobian_add(window_total, running)
            stats.bucket_reductions += 1
            stats.point_additions += 1
        window_sums.append(window_total)

    # Horner combination of the window results (most significant first).
    result = infinity
    for window_total in reversed(window_sums):
        for _ in range(c):
            result = curve.jacobian_double(result)
            stats.doublings += 1
        result = curve.jacobian_add(result, window_total)
        stats.point_additions += 1
    return curve.to_affine(result)
