"""Standard curve parameters.

The paper's §5.2 singles out two curves: secp256k1 (Bitcoin) and BN254
(pairing-friendly, used by Zcash-style ZKP systems); NIST P-256 is included
because the NIST recommendation (≥224-bit security) is the paper's
motivation for the 256-bit datapath.  Each entry carries the base-field
prime, the curve coefficients, the group order and the generator, plus — for
BN254 — the scalar field, whose high two-adicity is what makes the ZKP NTT
(Figure 7) possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ecc.curve import EllipticCurve
from repro.ecc.field import PrimeField
from repro.errors import CurveError

__all__ = ["CurveSpec", "CURVE_SPECS", "build_curve", "get_curve"]


@dataclass(frozen=True)
class CurveSpec:
    """Raw parameters of one named curve."""

    name: str
    field_modulus: int
    a: int
    b: int
    generator: Tuple[int, int]
    order: int
    #: Scalar field used by proof systems built over this curve (if any);
    #: for BN254 this is the NTT-friendly field of Figure 7.
    scalar_field_modulus: Optional[int] = None


#: secp256k1: the Bitcoin curve, full 256-bit prime.
_SECP256K1 = CurveSpec(
    name="secp256k1",
    field_modulus=2**256 - 2**32 - 977,
    a=0,
    b=7,
    generator=(
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    ),
    order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
)

#: BN254 (alt_bn128) G1: the pairing curve used by Zcash-era ZKP systems.
_BN254 = CurveSpec(
    name="bn254",
    field_modulus=0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47,
    a=0,
    b=3,
    generator=(1, 2),
    order=0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001,
    scalar_field_modulus=0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001,
)

#: NIST P-256: the curve behind the "at least 224 bits" recommendation.
_P256 = CurveSpec(
    name="p256",
    field_modulus=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    generator=(
        0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
        0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    ),
    order=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

#: Every curve the library knows about, keyed by name.
CURVE_SPECS: Dict[str, CurveSpec] = {
    spec.name: spec for spec in (_SECP256K1, _BN254, _P256)
}


def build_curve(spec: CurveSpec, field: Optional[PrimeField] = None) -> EllipticCurve:
    """Instantiate an :class:`EllipticCurve` from a spec.

    Passing an explicit ``field`` lets callers choose the multiplication
    backend (e.g. the cycle-level ModSRAM model) and share one operation
    counter across many curve operations.
    """
    if field is None:
        field = PrimeField(spec.field_modulus)
    elif field.modulus != spec.field_modulus:
        raise CurveError(
            f"field modulus {field.modulus:#x} does not match curve "
            f"{spec.name!r} ({spec.field_modulus:#x})"
        )
    return EllipticCurve(
        name=spec.name,
        field=field,
        a=spec.a,
        b=spec.b,
        generator=spec.generator,
        order=spec.order,
    )


def get_curve(name: str, field: Optional[PrimeField] = None) -> EllipticCurve:
    """Build a named curve (``"secp256k1"``, ``"bn254"`` or ``"p256"``)."""
    key = name.lower()
    if key not in CURVE_SPECS:
        raise CurveError(
            f"unknown curve {name!r}; available: {sorted(CURVE_SPECS)}"
        )
    return build_curve(CURVE_SPECS[key], field)
