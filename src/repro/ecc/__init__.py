"""Elliptic-curve cryptography substrate.

Prime fields with pluggable multiplication backends, the curve group law in
affine and Jacobian coordinates, scalar multiplication, and the standard
curves the paper discusses (secp256k1, BN254, P-256).
"""

from repro.ecc.curve import AffinePoint, EllipticCurve, JacobianPoint
from repro.ecc.curves_data import (
    CURVE_SPECS,
    CurveSpec,
    build_curve,
    get_curve,
)
from repro.ecc.ecdsa import Ecdsa, KeyPair, Signature
from repro.ecc.field import FieldElement, PrimeField
from repro.ecc.scalar import scalar_multiply

__all__ = [
    "AffinePoint",
    "CURVE_SPECS",
    "CurveSpec",
    "Ecdsa",
    "EllipticCurve",
    "FieldElement",
    "JacobianPoint",
    "KeyPair",
    "PrimeField",
    "Signature",
    "build_curve",
    "get_curve",
    "scalar_multiply",
]
