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
    """Left-to-right double-and-add scalar multiplication.

    The ladder runs the curve's residue formulas on ``(X, Y, Z)`` integer
    triples, starting from the point itself at the top bit; only the
    result is built from field elements, to normalise it.
    """
    if scalar < 0:
        raise OperandRangeError(f"scalar must be non-negative, got {scalar}")
    if scalar == 0 or point.is_infinity:
        return curve.infinity()
    affine = curve._residues(point.x, point.y)
    double, add = curve._double, curve._add_mixed
    accumulator = (*affine, 1)
    for bit_index in range(scalar.bit_length() - 2, -1, -1):
        accumulator = double(accumulator)
        if (scalar >> bit_index) & 1:
            accumulator = add(accumulator, affine)
    return curve.to_affine(curve._jacobian(accumulator))
