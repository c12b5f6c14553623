"""Scalar multiplication.

Scalar multiplication ``k · P`` is the outer loop that turns modular
multiplications into ECC; it is written over the Jacobian group law so the
number of modular multiplications it triggers can be measured through the
field's operation counter, which is how the application-level examples
connect ModSRAM's per-multiplication cycle count to end-to-end
point-operation latency.
"""

from __future__ import annotations

from repro.ecc.curve import AffinePoint, EllipticCurve
from repro.errors import OperandRangeError

__all__ = ["scalar_multiply"]


def scalar_multiply(curve: EllipticCurve, scalar: int, point: AffinePoint) -> AffinePoint:
    """Left-to-right double-and-add scalar multiplication."""
    if scalar < 0:
        raise OperandRangeError(f"scalar must be non-negative, got {scalar}")
    if scalar == 0 or point.is_infinity:
        return curve.infinity()
    accumulator = curve.to_jacobian(curve.infinity())
    for bit_index in range(scalar.bit_length() - 1, -1, -1):
        accumulator = curve.jacobian_double(accumulator)
        if (scalar >> bit_index) & 1:
            accumulator = curve.jacobian_add_mixed(accumulator, point)
    return curve.to_affine(accumulator)
