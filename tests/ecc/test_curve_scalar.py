"""Tests for curve construction, the group law and scalar multiplication."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import (
    CURVE_SPECS,
    PrimeField,
    build_curve,
    get_curve,
    scalar_multiply,
)
from repro.ecc.curve import EllipticCurve
from repro.errors import CurveError, OperandRangeError

SECP256K1_2G = (
    0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
    0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
)


@pytest.fixture(scope="module")
def secp():
    return get_curve("secp256k1")


def _negate(curve, point):
    return curve.affine_point(int(point.x), -int(point.y))


@pytest.fixture(scope="module")
def bn254():
    return get_curve("bn254")


class TestCurveDatabase:
    def test_known_curves_present(self):
        assert set(CURVE_SPECS) == {"secp256k1", "bn254", "p256"}

    def test_generators_satisfy_curve_equations(self):
        for name in CURVE_SPECS:
            curve = get_curve(name)
            assert curve.contains(curve.generator)

    def test_generators_have_the_stated_order(self):
        for name in CURVE_SPECS:
            curve = get_curve(name)
            spec = CURVE_SPECS[name]
            assert scalar_multiply(curve, spec.order, curve.generator).is_infinity

    def test_unknown_curve_rejected(self):
        with pytest.raises(CurveError):
            get_curve("curve25519")

    def test_case_insensitive_lookup(self):
        assert get_curve("BN254").name == "bn254"

    def test_build_curve_field_mismatch_rejected(self):
        with pytest.raises(CurveError):
            build_curve(CURVE_SPECS["bn254"], field=PrimeField(97))


class TestGroupLaw:
    def test_known_point_doubling(self, secp):
        doubled = secp.double(secp.generator)
        assert (int(doubled.x), int(doubled.y)) == SECP256K1_2G

    def test_addition_is_commutative(self, secp):
        g = secp.generator
        two_g = secp.double(g)
        three_g_a = secp.add(g, two_g)
        three_g_b = secp.add(two_g, g)
        assert three_g_a == three_g_b

    def test_identity_element(self, secp):
        g = secp.generator
        assert secp.add(g, secp.infinity()) == g
        assert secp.add(secp.infinity(), g) == g

    def test_inverse_element(self, secp):
        g = secp.generator
        assert secp.add(g, _negate(secp, g)).is_infinity

    def test_double_equals_add_to_itself(self, secp):
        g = secp.generator
        assert secp.double(g) == secp.add(g, g)

    def test_point_validation(self, secp):
        with pytest.raises(CurveError):
            secp.affine_point(1, 1)

    def test_jacobian_round_trip(self, secp):
        g = secp.generator
        assert secp.to_affine(secp.to_jacobian(g)) == g
        assert secp.to_affine(secp.to_jacobian(secp.infinity())).is_infinity

    def test_mixed_addition_matches_general_addition(self, secp, rng):
        g = secp.generator
        p = scalar_multiply(curve=secp, scalar=rng.randrange(3, 1 << 64), point=g)
        q = scalar_multiply(curve=secp, scalar=rng.randrange(3, 1 << 64), point=g)
        general = secp.jacobian_add(secp.to_jacobian(p), secp.to_jacobian(q))
        mixed = secp.jacobian_add_mixed(secp.to_jacobian(p), q)
        assert secp.to_affine(general) == secp.to_affine(mixed)

    def test_singular_curve_rejected(self):
        with pytest.raises(CurveError):
            EllipticCurve("bad", PrimeField(97), a=0, b=0)

    def test_curve_without_generator(self):
        curve = EllipticCurve("nameless", PrimeField(97), a=2, b=3)
        with pytest.raises(CurveError):
            _ = curve.generator

    def test_associativity_small_sample(self, secp):
        g = secp.generator
        p2 = secp.double(g)
        p3 = secp.add(p2, g)
        assert secp.add(secp.add(g, p2), p3) == secp.add(g, secp.add(p2, p3))

    def test_nist_curve_with_nonzero_a(self):
        p256 = get_curve("p256")
        doubled = p256.double(p256.generator)
        assert p256.contains(doubled)


class TestScalarMultiplication:
    def test_small_multiples(self, secp):
        g = secp.generator
        accumulated = secp.infinity()
        for k in range(1, 8):
            accumulated = secp.add(accumulated, g)
            assert scalar_multiply(secp, k, g) == accumulated

    def test_zero_scalar(self, secp):
        assert scalar_multiply(secp, 0, secp.generator).is_infinity

    def test_negative_scalar_rejected(self, secp):
        with pytest.raises(OperandRangeError):
            scalar_multiply(secp, -1, secp.generator)

    @given(st.integers(1, 2**128 - 1))
    @settings(max_examples=10, deadline=None)
    def test_algorithms_agree(self, scalar):
        curve = get_curve("secp256k1")
        g = curve.generator
        # Right-to-left over the affine group law, as the reference.
        expected, addend, remaining = curve.infinity(), g, scalar
        while remaining:
            if remaining & 1:
                expected = curve.add(expected, addend)
            addend = curve.double(addend)
            remaining >>= 1
        assert scalar_multiply(curve, scalar, g) == expected

    def test_distributivity_over_scalars(self, bn254, rng):
        g = bn254.generator
        k1 = rng.randrange(1, 1 << 64)
        k2 = rng.randrange(1, 1 << 64)
        left = scalar_multiply(bn254, k1 + k2, g)
        right = bn254.add(scalar_multiply(bn254, k1, g), scalar_multiply(bn254, k2, g))
        assert left == right

    def test_unit_scalar_returns_the_point(self, secp, rng):
        point = scalar_multiply(secp, rng.randrange(3, 1 << 64), secp.generator)
        assert scalar_multiply(secp, 1, point) == point

    def test_multiples_of_infinity_are_infinity(self, secp):
        for scalar in (0, 1, 2, 0xDEADBEEF):
            assert scalar_multiply(secp, scalar, secp.infinity()).is_infinity

    @pytest.mark.parametrize("name", sorted(CURVE_SPECS))
    def test_order_minus_one_negates_the_generator(self, name):
        curve = get_curve(name)
        order = CURVE_SPECS[name].order
        assert scalar_multiply(curve, order - 1, curve.generator) == _negate(
            curve, curve.generator
        )

    @pytest.mark.parametrize("name", sorted(CURVE_SPECS))
    def test_multiples_lie_on_the_curve(self, name, rng):
        curve = get_curve(name)
        for _ in range(3):
            point = scalar_multiply(curve, rng.randrange(1, 1 << 128), curve.generator)
            assert curve.contains(point)

    def test_scalars_wrap_at_the_group_order(self, bn254, rng):
        order = CURVE_SPECS["bn254"].order
        scalar = rng.randrange(1, 1 << 64)
        assert scalar_multiply(bn254, order + scalar, bn254.generator) == (
            scalar_multiply(bn254, scalar, bn254.generator)
        )

    def test_composition_of_scalars(self, secp, rng):
        """k1 * (k2 * G) == (k1 * k2) * G."""
        k1, k2 = rng.randrange(1, 1 << 40), rng.randrange(1, 1 << 40)
        inner = scalar_multiply(secp, k2, secp.generator)
        assert scalar_multiply(secp, k1, inner) == scalar_multiply(
            secp, k1 * k2, secp.generator
        )

    def test_one_inversion_and_a_fixed_price_per_doubling(self):
        """Jacobian coordinates defer the one inversion to the affine result."""
        spec = CURVE_SPECS["secp256k1"]
        counts = []
        for bits in (8, 9, 10, 64):
            curve = build_curve(spec, field=PrimeField(spec.field_modulus))
            scalar_multiply(curve, 1 << bits, curve.generator)
            assert curve.field.counter.count("modinv") == 1
            counts.append(curve.field.counter.count("modmul"))
        per_doubling = counts[1] - counts[0]
        assert per_doubling > 0
        assert counts[2] - counts[1] == per_doubling
        assert counts[3] - counts[0] == (64 - 8) * per_doubling
