"""Each point formula charges exactly the multiplications it makes.

The formulas call the backend's algorithm body directly and charge their
counts once, from constants.  A constant that drifts from its formula's
body would go unseen by every output, so each formula and branch runs here
on a backend that counts its ``_multiply`` calls, and the field counter's
``modmul``, the backend's ``stats.multiplications`` and the calls made
must agree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import pytest

from repro.core.algorithms.schoolbook import SchoolbookMultiplier
from repro.ecc import PrimeField, build_curve
from repro.ecc.curve import EllipticCurve, JacobianPoint
from repro.ecc.curves_data import CURVE_SPECS


class CallCountingMultiplier(SchoolbookMultiplier):
    """``a * b % p`` that records the operands of every algorithm call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: List[Tuple[int, int]] = []

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        self.calls.append((a, b))
        return super()._multiply(a, b, modulus)


def _curve(name: str) -> Tuple[EllipticCurve, CallCountingMultiplier]:
    spec = CURVE_SPECS[name]
    multiplier = CallCountingMultiplier()
    field = PrimeField(spec.field_modulus, multiplier=multiplier)
    return build_curve(spec, field=field), multiplier


def _charged(
    curve: EllipticCurve, multiplier: CallCountingMultiplier, operation: Callable
) -> Tuple[Dict[str, int], object]:
    """Run ``operation`` and return what it charged and its result."""
    curve.field.counter.reset()
    multiplier.reset_stats()
    multiplier.calls.clear()
    result = operation()
    counts = curve.field.counter.as_dict()
    calls = multiplier.calls
    assert counts.get("modmul", 0) == multiplier.stats.multiplications == len(calls)
    p = curve.field.modulus
    assert all(0 <= a < p and 0 <= b < p for a, b in calls)
    return counts, result


def _points(curve: EllipticCurve):
    """``2G`` and ``3G`` in Jacobian coordinates with ``Z != 1``, and ``2G``
    in affine coordinates."""
    generator = curve.generator
    twice = curve.jacobian_double(curve.to_jacobian(generator))
    thrice = curve.jacobian_add_mixed(twice, generator)
    return twice, thrice, curve.to_affine(twice)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("secp256k1", {"modmul": 11, "modsub": 4}),
        ("bn254", {"modmul": 11, "modsub": 4}),
        ("p256", {"modmul": 14, "modadd": 1, "modsub": 4}),
    ],
)
def test_doubling(name: str, expected: Dict[str, int]) -> None:
    curve, multiplier = _curve(name)
    twice, _, twice_affine = _points(curve)
    counts, result = _charged(curve, multiplier, lambda: curve.jacobian_double(twice))
    assert counts == expected
    assert curve.to_affine(result) == curve.double(twice_affine)


@pytest.mark.parametrize("name", ["secp256k1", "p256"])
def test_mixed_addition_and_its_branches(name: str) -> None:
    curve, multiplier = _curve(name)
    twice, thrice, twice_affine = _points(curve)
    doubling = _charged(curve, multiplier, lambda: curve.jacobian_double(twice))[0]

    counts, result = _charged(
        curve, multiplier, lambda: curve.jacobian_add_mixed(twice, curve.generator)
    )
    assert counts == {"modmul": 11, "modsub": 7}
    assert curve.to_affine(result) == curve.to_affine(thrice)

    # P = Q: the four multiplications before the branch, then a doubling.
    counts, result = _charged(
        curve, multiplier, lambda: curve.jacobian_add_mixed(twice, twice_affine)
    )
    assert counts == {**doubling, "modmul": 4 + doubling["modmul"]}
    assert curve.to_affine(result) == curve.double(twice_affine)

    # P = -Q: the four multiplications, then the point at infinity.
    minus_twice = curve.affine_point(int(twice_affine.x), -int(twice_affine.y))
    counts, result = _charged(
        curve, multiplier, lambda: curve.jacobian_add_mixed(twice, minus_twice)
    )
    assert counts == {"modmul": 4}
    assert result.is_infinity


@pytest.mark.parametrize("name", ["secp256k1", "p256"])
def test_general_addition_and_its_branches(name: str) -> None:
    curve, multiplier = _curve(name)
    twice, thrice, twice_affine = _points(curve)
    doubling = _charged(curve, multiplier, lambda: curve.jacobian_double(twice))[0]

    counts, result = _charged(curve, multiplier, lambda: curve.jacobian_add(twice, thrice))
    assert counts == {"modmul": 16, "modsub": 7}
    assert curve.to_affine(result) == curve.add(twice_affine, curve.to_affine(thrice))

    counts, result = _charged(curve, multiplier, lambda: curve.jacobian_add(twice, twice))
    assert counts == {**doubling, "modmul": 8 + doubling["modmul"]}
    assert curve.to_affine(result) == curve.double(twice_affine)

    minus_twice = curve.to_jacobian(
        curve.affine_point(int(twice_affine.x), -int(twice_affine.y))
    )
    counts, result = _charged(
        curve, multiplier, lambda: curve.jacobian_add(twice, minus_twice)
    )
    assert counts == {"modmul": 8}
    assert result.is_infinity


def test_infinity_inputs_charge_nothing() -> None:
    curve, multiplier = _curve("p256")
    twice, _, twice_affine = _points(curve)
    infinity = curve.to_jacobian(curve.infinity())
    field = curve.field
    order_two = JacobianPoint(field.one(), field.zero(), field.one())
    cases = [
        (lambda: curve.jacobian_double(infinity), infinity),
        (lambda: curve.jacobian_double(order_two), infinity),
        (lambda: curve.jacobian_add(infinity, twice), twice),
        (lambda: curve.jacobian_add(twice, infinity), twice),
        (lambda: curve.jacobian_add_mixed(twice, curve.infinity()), twice),
        (
            lambda: curve.jacobian_add_mixed(infinity, twice_affine),
            curve.to_jacobian(twice_affine),
        ),
    ]
    for operation, expected in cases:
        counts, result = _charged(curve, multiplier, operation)
        assert counts == {}
        assert result == expected
