"""Tests for the polynomial layer over prime fields."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine
from repro.errors import NttError, OperandRangeError
from repro.zkp import NttContext, Polynomial

#: The BN254 scalar field — the field ZKP polynomial arithmetic uses.
R = 0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001
#: A small NTT-friendly prime for exhaustive checks.
SMALL = 97

coefficient_lists = st.lists(st.integers(0, SMALL - 1), min_size=1, max_size=12)


class TestConstruction:
    def test_normalisation_trims_trailing_zeros(self):
        poly = Polynomial.create([1, 2, 0, 0], SMALL)
        assert poly.coefficients == (1, 2)
        assert poly.degree == 1

    def test_coefficients_are_reduced(self):
        poly = Polynomial.create([100, -1], SMALL)
        assert poly.coefficients == (3, 96)

    def test_zero_and_one(self):
        assert Polynomial.zero(SMALL).is_zero()
        assert Polynomial.one(SMALL).coefficients == (1,)

    def test_zero_polynomial_has_degree_zero(self):
        assert Polynomial.create([0, 0, 0], SMALL).degree == 0

    def test_invalid_modulus_rejected(self):
        with pytest.raises(OperandRangeError):
            Polynomial.create([1], 1)

    def test_coefficient_accessor(self):
        poly = Polynomial.create([5, 7], SMALL)
        assert poly.coefficient(0) == 5
        assert poly.coefficient(5) == 0
        with pytest.raises(OperandRangeError):
            poly.coefficient(-1)


class TestRingOperations:
    def test_addition_and_subtraction(self):
        a = Polynomial.create([1, 2, 3], SMALL)
        b = Polynomial.create([4, 5], SMALL)
        assert (a + b).coefficients == (5, 7, 3)
        assert (a - b).coefficients == (94, 94, 3)
        assert ((a + b) - b) == a

    def test_scale(self):
        a = Polynomial.create([1, 2], SMALL)
        assert a.scale(10).coefficients == (10, 20)
        assert a.scale(0).is_zero()

    def test_schoolbook_product_known_value(self):
        a = Polynomial.create([1, 1], SMALL)     # 1 + x
        b = Polynomial.create([1, 96], SMALL)    # 1 - x
        assert (a.multiply_schoolbook(b)).coefficients == (1, 0, 96)  # 1 - x^2

    def test_product_with_zero(self):
        a = Polynomial.create([3, 1], SMALL)
        assert (a * Polynomial.zero(SMALL)).is_zero()

    def test_mixing_fields_rejected(self):
        with pytest.raises(OperandRangeError):
            Polynomial.create([1], SMALL) + Polynomial.create([1], 101)

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_is_commutative(self, a_coeffs, b_coeffs):
        a = Polynomial.create(a_coeffs, SMALL)
        b = Polynomial.create(b_coeffs, SMALL)
        assert a * b == b * a

    @given(coefficient_lists, coefficient_lists, coefficient_lists)
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, a_coeffs, b_coeffs, c_coeffs):
        a = Polynomial.create(a_coeffs, SMALL)
        b = Polynomial.create(b_coeffs, SMALL)
        c = Polynomial.create(c_coeffs, SMALL)
        assert a * (b + c) == a * b + a * c

    @given(coefficient_lists, st.integers(0, SMALL - 1))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_ring_homomorphism(self, coeffs, point):
        a = Polynomial.create(coeffs, SMALL)
        b = Polynomial.create(list(reversed(coeffs)), SMALL)
        assert (a * b).evaluate(point) == (a.evaluate(point) * b.evaluate(point)) % SMALL
        assert (a + b).evaluate(point) == (a.evaluate(point) + b.evaluate(point)) % SMALL


class TestNttMultiplication:
    def test_ntt_product_matches_schoolbook(self, rng):
        a = Polynomial.create([rng.randrange(R) for _ in range(20)], R)
        b = Polynomial.create([rng.randrange(R) for _ in range(25)], R)
        assert a.multiply_ntt(b) == a.multiply_schoolbook(b)

    def test_operator_uses_ntt_for_large_products(self, rng):
        a = Polynomial.create([rng.randrange(R) for _ in range(40)], R)
        b = Polynomial.create([rng.randrange(R) for _ in range(40)], R)
        assert (a * b) == a.multiply_schoolbook(b)

    def test_explicit_context_is_reused(self, rng):
        context = NttContext(R, 64)
        a = Polynomial.create([rng.randrange(R) for _ in range(20)], R)
        b = Polynomial.create([rng.randrange(R) for _ in range(20)], R)
        product = a.multiply_ntt(b, context=context)
        assert product == a.multiply_schoolbook(b)
        assert context.counter.count("modmul") > 0

    @pytest.mark.parametrize("backend", (None, "r4csa-lut"))
    def test_product_is_charged_like_multiply_polynomials(self, backend):
        """Both entries run one path on the context's backend."""
        def build():
            if backend is None:
                return NttContext(SMALL, 8)
            return Engine(backend=backend).ntt(8, modulus=SMALL)

        def charges(context):
            counter = context.counter
            scopes = [(scope, counter.scoped(scope)) for scope in counter.scopes()]
            return counter.as_dict(), scopes, context.multiplier.stats.multiplications

        via_polynomial, via_context = build(), build()
        a, b = [1, 2, 3], [4, 5]
        product = Polynomial.create(a, SMALL).multiply_ntt(
            Polynomial.create(b, SMALL), context=via_polynomial
        )
        assert product == Polynomial.create(via_context.multiply_polynomials(a, b), SMALL)
        assert charges(via_polynomial) == charges(via_context)

    def test_too_small_context_rejected(self):
        context = NttContext(R, 4)
        a = Polynomial.create(list(range(1, 6)), R)
        with pytest.raises(NttError):
            a.multiply_ntt(a, context=context)

    def test_context_field_mismatch_rejected(self):
        context = NttContext(97, 8)
        a = Polynomial.create([1, 2, 3], R)
        with pytest.raises(NttError):
            a.multiply_ntt(a, context=context)

    def test_repr_is_compact(self):
        poly = Polynomial.create(list(range(10)), R)
        assert "degree=9" in repr(poly)
