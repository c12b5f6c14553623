"""Pinned digests of the ECC layer on the engine's backends.

The values were recorded while every field operation of the point
formulas went through ``FieldElement``, ``PrimeField`` and
``ModularMultiplier.multiply`` and charged its own counts.  Running the
formulas on residues and charging each formula's counts once must not
move any of them: the outputs (public keys, signatures, verify results,
points), the field counter's totals, scopes and insertion order (its
``repr``), and the engine's multiplier statistics, which see every
backend call in order (``r4csa-lut`` and ``modsram-fast`` keep a
depth-one LUT cache, so their ``precomputations`` count depends on that
order).

Scalar multiplication by ``order`` ends in the mixed addition's
``P = -Q`` branch, and by ``order + 2`` it passes through its ``P = Q``
branch (the doubling).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import pytest

from repro.ecc import Ecdsa, scalar_multiply
from repro.ecc.curve import AffinePoint, EllipticCurve
from repro.engine import Engine
from repro.instrumentation import OperationCounter
from repro.zkp import msm_pippenger

CURVES = ("bn254", "p256", "secp256k1")
KEYS = (0x1B0B5C0FFEE1234567890ABCDEF, 0xDEADBEEF1234)
MESSAGE = b"ModSRAM: modular multiplication in SRAM"
#: A 20-bit scalar, for the backends that emulate the paper's algorithm.
SMALL_SCALAR = 0xB5A3D

#: ``backend -> curve -> {part: digest}``: two key pairs, signatures and
#: verifications, scalar multiplications around the order, one addition.
SIGNING_PINS: Dict[str, Dict[str, Dict[str, str]]] = {
    "barrett": {
        "bn254": {
            "outputs": "4a344640403c5c2c",
            "counter": "67c3cd09130ab53e",
            "stats": "62c85ca722f8acda",
        },
        "p256": {
            "outputs": "300c22e73c7f96cb",
            "counter": "d77fbff527812f51",
            "stats": "cc2275263b6ed847",
        },
        "secp256k1": {
            "outputs": "12dda6915d114147",
            "counter": "6c78cb0a085d8f84",
            "stats": "7aa80fa54bb2359a",
        },
    },
    "montgomery": {
        "bn254": {
            "outputs": "4a344640403c5c2c",
            "counter": "67c3cd09130ab53e",
            "stats": "d4c19d28acd46283",
        },
        "p256": {
            "outputs": "300c22e73c7f96cb",
            "counter": "d77fbff527812f51",
            "stats": "f96e8abb7c4f840e",
        },
        "secp256k1": {
            "outputs": "12dda6915d114147",
            "counter": "6c78cb0a085d8f84",
            "stats": "8f44645bf22e94e5",
        },
    },
    "schoolbook": {
        "bn254": {
            "outputs": "4a344640403c5c2c",
            "counter": "67c3cd09130ab53e",
            "stats": "a19077a5be2408eb",
        },
        "p256": {
            "outputs": "300c22e73c7f96cb",
            "counter": "d77fbff527812f51",
            "stats": "4ba9b49221d73e21",
        },
        "secp256k1": {
            "outputs": "12dda6915d114147",
            "counter": "6c78cb0a085d8f84",
            "stats": "aaf6ad2540c77fe2",
        },
    },
}

#: ``backend -> curve -> {part: digest}``: a 20-bit scalar multiplication
#: and one addition on the LUT-caching backends.
SMALL_PINS: Dict[str, Dict[str, Dict[str, str]]] = {
    "modsram-fast": {
        "bn254": {
            "outputs": "06baafd7da2689c1",
            "counter": "38cb6526d31b890c",
            "stats": "7770cf3743443112",
        },
        "p256": {
            "outputs": "c90e201277f2dc6e",
            "counter": "60aae2e344a02652",
            "stats": "c38af9bc398317d4",
        },
        "secp256k1": {
            "outputs": "76529d374aa05cbe",
            "counter": "38cb6526d31b890c",
            "stats": "bff81aa139fa159d",
        },
    },
    "r4csa-lut": {
        "bn254": {
            "outputs": "06baafd7da2689c1",
            "counter": "38cb6526d31b890c",
            "stats": "1294a3e4b7975bd3",
        },
        "p256": {
            "outputs": "c90e201277f2dc6e",
            "counter": "60aae2e344a02652",
            "stats": "326de95f5529600a",
        },
        "secp256k1": {
            "outputs": "76529d374aa05cbe",
            "counter": "38cb6526d31b890c",
            "stats": "893ff3a943b87e8c",
        },
    },
}

#: ``backend -> {part: digest}``: one P-256 signature and its verification
#: on the LUT-caching backends (the slow set).
SLOW_PINS: Dict[str, Dict[str, str]] = {
    "modsram-fast": {
        "outputs": "ec777890010f11ea",
        "counter": "1c4e04bcbb441093",
        "stats": "504fbd3ebd1b596a",
    },
    "r4csa-lut": {
        "outputs": "ec777890010f11ea",
        "counter": "1c4e04bcbb441093",
        "stats": "6ef0a00a58c3af3e",
    },
}

#: One secp256k1 MSM at window 4 on ``schoolbook``.
MSM_PINS: Dict[str, str] = {
    "outputs": "f90a1a36ef25dc39",
    "counter": "763402a075bd6acf",
    "stats": "e8da78aceff27791",
}


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def _point(point: AffinePoint) -> object:
    return None if point.is_infinity else (int(point.x), int(point.y))


def _counts(counter: OperationCounter) -> List[object]:
    return [counter.as_dict(), repr(counter)]


def _signing(curve: EllipticCurve, keys=KEYS) -> List[object]:
    """Key pairs, signatures and verifications for ``keys``."""
    ecdsa = Ecdsa(curve)
    outputs: List[object] = []
    for key in keys:
        pair = ecdsa.generate_keypair(key)
        signature = ecdsa.sign(key, MESSAGE)
        verified = ecdsa.verify(pair.public_key, MESSAGE, signature)
        outputs += [_point(pair.public_key), signature, verified]
    return outputs


def _around_the_order(curve: EllipticCurve) -> List[object]:
    """``k · G`` for ``k`` in ``order - 1 .. order + 2``, then one addition."""
    order = curve.order
    points = [
        scalar_multiply(curve, scalar, curve.generator)
        for scalar in (order - 1, order, order + 1, order + 2)
    ]
    return [_point(point) for point in points] + [
        _point(curve.add(points[0], points[3]))
    ]


def _small(curve: EllipticCurve) -> List[object]:
    """A 20-bit scalar multiplication and one addition."""
    point = scalar_multiply(curve, SMALL_SCALAR, curve.generator)
    return [_point(point), _point(curve.add(curve.generator, point))]


def _pinned(engine: Engine, curve: EllipticCurve, outputs) -> Dict[str, str]:
    return {
        "outputs": _digest(outputs),
        "counter": _digest(_counts(curve.field.counter)),
        "stats": _digest([engine.stats().operations.as_dict()]),
    }


@pytest.mark.parametrize("curve_name", CURVES)
@pytest.mark.parametrize("backend", sorted(SIGNING_PINS))
def test_signing_is_pinned(backend: str, curve_name: str) -> None:
    engine = Engine(backend=backend)
    curve = engine.curve(curve_name)
    outputs = _signing(curve) + _around_the_order(curve)
    assert _pinned(engine, curve, outputs) == SIGNING_PINS[backend][curve_name]


@pytest.mark.parametrize("curve_name", CURVES)
@pytest.mark.parametrize("backend", sorted(SMALL_PINS))
def test_small_scalar_multiplication_is_pinned(backend: str, curve_name: str) -> None:
    engine = Engine(backend=backend)
    curve = engine.curve(curve_name)
    outputs = _small(curve)
    assert _pinned(engine, curve, outputs) == SMALL_PINS[backend][curve_name]


@pytest.mark.slow
@pytest.mark.parametrize("backend", sorted(SLOW_PINS))
def test_p256_signing_is_pinned(backend: str) -> None:
    engine = Engine(backend=backend)
    curve = engine.curve("p256")
    outputs = _signing(curve, KEYS[:1])
    assert outputs[-1] is True
    assert _pinned(engine, curve, outputs) == SLOW_PINS[backend]


def test_msm_is_pinned() -> None:
    engine = Engine(backend="schoolbook")
    curve = engine.curve("secp256k1")
    rng = random.Random(4)
    points = [scalar_multiply(curve, k, curve.generator) for k in range(2, 10)]
    scalars = [rng.getrandbits(64) for _ in points]
    result = msm_pippenger(curve, scalars, points, window_bits=4)
    assert _pinned(engine, curve, [_point(result)]) == MSM_PINS
