"""Tests for the number-theoretic transform."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine, available_backends
from repro.errors import NttError
from repro.zkp import NttContext, bit_reverse_indices, find_root_of_unity

#: A small NTT-friendly prime: 97 - 1 = 2^5 * 3.
SMALL_PRIME = 97
#: The BN254 scalar field (2-adicity 28), the field ZKP systems transform over.
BN254_R = 0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001

#: Coefficient lists that fit a size-16 product without wrap-around.
POLYNOMIALS = st.lists(st.integers(0, SMALL_PRIME - 1), min_size=1, max_size=8)


def _schoolbook(a, b, modulus, size):
    """The product of two coefficient lists, padded to ``size``."""
    product = [0] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = (product[i + j] + x * y) % modulus
    return product


def _add(a, b):
    """Coefficient-wise sum modulo the small prime, padded to the longer list."""
    length = max(len(a), len(b))
    a, b = list(a) + [0] * (length - len(a)), list(b) + [0] * (length - len(b))
    return [(x + y) % SMALL_PRIME for x, y in zip(a, b)]


def _evaluate(coefficients, point):
    """Horner evaluation modulo the small prime."""
    value = 0
    for coefficient in reversed(coefficients):
        value = (value * point + coefficient) % SMALL_PRIME
    return value


class TestHelpers:
    def test_bit_reverse_indices(self):
        assert bit_reverse_indices(8) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_bit_reverse_is_an_involution(self):
        indices = bit_reverse_indices(64)
        assert [indices[i] for i in indices] == list(range(64))

    def test_bit_reverse_requires_power_of_two(self):
        with pytest.raises(NttError):
            bit_reverse_indices(12)

    def test_contexts_of_one_size_share_one_bit_reversal_table(self):
        """Engines build a context each; none may copy the table."""
        table = NttContext(SMALL_PRIME, 16)._bit_reversal
        assert list(table) == bit_reverse_indices(16)
        for _ in range(2):
            context = Engine(backend="schoolbook").ntt(16, modulus=BN254_R)
            assert context._bit_reversal is table
        assert NttContext(SMALL_PRIME, 8)._bit_reversal is not table

    def test_find_root_of_unity_has_exact_order(self):
        root = find_root_of_unity(SMALL_PRIME, 16)
        assert pow(root, 16, SMALL_PRIME) == 1
        assert pow(root, 8, SMALL_PRIME) != 1

    def test_find_root_for_bn254_scalar_field(self):
        root = find_root_of_unity(BN254_R, 1 << 10)
        assert pow(root, 1 << 10, BN254_R) == 1
        assert pow(root, 1 << 9, BN254_R) != 1

    def test_unfriendly_size_rejected(self):
        with pytest.raises(NttError):
            find_root_of_unity(SMALL_PRIME, 64)  # 64 does not divide 96


class TestTransform:
    def test_round_trip_small_prime(self, rng):
        context = NttContext(SMALL_PRIME, 16)
        values = [rng.randrange(SMALL_PRIME) for _ in range(16)]
        assert context.inverse(context.forward(values)) == values

    def test_round_trip_bn254(self, rng):
        context = NttContext(BN254_R, 128)
        values = [rng.randrange(BN254_R) for _ in range(128)]
        assert context.inverse(context.forward(values)) == values

    def test_forward_matches_naive_dft(self, rng):
        size = 8
        context = NttContext(SMALL_PRIME, size)
        values = [rng.randrange(SMALL_PRIME) for _ in range(size)]
        transformed = context.forward(values)
        root = context.root
        for k in range(size):
            expected = sum(
                values[j] * pow(root, j * k, SMALL_PRIME) for j in range(size)
            ) % SMALL_PRIME
            assert transformed[k] == expected

    def test_transform_of_delta_is_constant(self):
        context = NttContext(SMALL_PRIME, 8)
        delta = [1] + [0] * 7
        assert context.forward(delta) == [1] * 8

    def test_linearity(self, rng):
        context = NttContext(SMALL_PRIME, 16)
        a = [rng.randrange(SMALL_PRIME) for _ in range(16)]
        b = [rng.randrange(SMALL_PRIME) for _ in range(16)]
        summed = [(x + y) % SMALL_PRIME for x, y in zip(a, b)]
        lhs = context.forward(summed)
        rhs = [
            (x + y) % SMALL_PRIME
            for x, y in zip(context.forward(a), context.forward(b))
        ]
        assert lhs == rhs

    def test_wrong_length_rejected(self):
        context = NttContext(SMALL_PRIME, 8)
        with pytest.raises(NttError):
            context.forward([1, 2, 3])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(NttError):
            NttContext(SMALL_PRIME, 12)
        with pytest.raises(NttError):
            NttContext(SMALL_PRIME, 1)
        with pytest.raises(NttError):
            NttContext(2, 8)

    def test_bad_explicit_root_rejected(self):
        with pytest.raises(NttError):
            NttContext(SMALL_PRIME, 8, root_of_unity=1)

    @given(st.integers(0, SMALL_PRIME - 1), st.integers(0, SMALL_PRIME - 1))
    @settings(max_examples=25, deadline=None)
    def test_convolution_theorem(self, x, y):
        """Pointwise products in the evaluation domain convolve coefficients."""
        context = NttContext(SMALL_PRIME, 8)
        a = [x, 1, 0, 0, 0, 0, 0, 0]
        b = [y, 2, 0, 0, 0, 0, 0, 0]
        eval_product = [
            (u * v) % SMALL_PRIME
            for u, v in zip(context.forward(a), context.forward(b))
        ]
        coefficients = context.inverse(eval_product)
        assert coefficients[0] == (x * y) % SMALL_PRIME
        assert coefficients[1] == (2 * x + y) % SMALL_PRIME
        assert coefficients[2] == 2 % SMALL_PRIME


class TestPolynomialMultiplication:
    def test_matches_schoolbook(self, rng):
        context = NttContext(BN254_R, 32)
        a = [rng.randrange(1000) for _ in range(16)]
        b = [rng.randrange(1000) for _ in range(16)]
        product = context.multiply_polynomials(a, b)
        assert product == _schoolbook(a, b, BN254_R, 32)

    def test_degree_bound_enforced(self):
        context = NttContext(SMALL_PRIME, 8)
        with pytest.raises(NttError):
            context.multiply_polynomials([1] * 5, [1] * 2)

    def test_degree_bound_enforced_on_the_second_operand(self):
        context = NttContext(SMALL_PRIME, 8)
        with pytest.raises(NttError):
            context.multiply_polynomials([1] * 2, [1] * 5)

    def test_difference_of_squares(self):
        """(1 + x)(1 - x) = 1 - x^2."""
        product = NttContext(SMALL_PRIME, 8).multiply_polynomials([1, 1], [1, 96])
        assert product == [1, 0, 96, 0, 0, 0, 0, 0]

    def test_product_with_zero(self):
        product = NttContext(SMALL_PRIME, 8).multiply_polynomials([3, 1, 4], [0])
        assert product == [0] * 8

    def test_constant_one_is_the_identity(self):
        product = NttContext(SMALL_PRIME, 8).multiply_polynomials([5, 7, 9, 11], [1])
        assert product == [5, 7, 9, 11, 0, 0, 0, 0]

    def test_coefficients_are_reduced(self):
        context = NttContext(SMALL_PRIME, 8)
        assert context.multiply_polynomials([100, -1], [1]) == [3, 96, 0, 0, 0, 0, 0, 0]
        assert context.multiply_polynomials([100, -1], [2, 3]) == (
            context.multiply_polynomials([3, 96], [2, 3])
        )

    @given(POLYNOMIALS, POLYNOMIALS)
    @settings(max_examples=30, deadline=None)
    def test_multiplication_is_commutative(self, a, b):
        context = NttContext(SMALL_PRIME, 16)
        assert context.multiply_polynomials(a, b) == context.multiply_polynomials(b, a)

    @given(POLYNOMIALS, POLYNOMIALS, POLYNOMIALS)
    @settings(max_examples=20, deadline=None)
    def test_multiplication_distributes_over_addition(self, a, b, c):
        context = NttContext(SMALL_PRIME, 16)
        b_plus_c = _add(b, c)
        assert context.multiply_polynomials(a, b_plus_c) == _add(
            context.multiply_polynomials(a, b), context.multiply_polynomials(a, c)
        )

    @given(POLYNOMIALS, POLYNOMIALS, st.integers(0, SMALL_PRIME - 1))
    @settings(max_examples=30, deadline=None)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, point):
        product = NttContext(SMALL_PRIME, 16).multiply_polynomials(a, b)
        assert _evaluate(product, point) == (
            _evaluate(a, point) * _evaluate(b, point)
        ) % SMALL_PRIME

    def test_product_is_charged_once_per_step(self):
        """Two forward transforms, the point-wise products, one inverse."""
        size = 16
        context = NttContext(SMALL_PRIME, size)
        context.multiply_polynomials([1, 2, 3], [4, 5])
        butterflies = (size // 2) * 4
        counter = context.counter
        assert counter.count("modmul") == 3 * butterflies + 2 * size
        assert counter.count("modadd") == 3 * 2 * butterflies
        assert counter.count("memory_access") == 15 * butterflies + 5 * size
        assert context.multiplier.stats.multiplications == counter.count("modmul")

    def test_a_reused_context_charges_every_product_alike(self, rng):
        reused, fresh = NttContext(SMALL_PRIME, 16), NttContext(SMALL_PRIME, 16)
        a = [rng.randrange(SMALL_PRIME) for _ in range(8)]
        b = [rng.randrange(SMALL_PRIME) for _ in range(8)]
        first = reused.multiply_polynomials(a, b)
        assert reused.multiply_polynomials(a, b) == first
        assert fresh.multiply_polynomials(a, b) == first
        assert reused.counter.as_dict() == {
            operation: 2 * count for operation, count in fresh.counter.as_dict().items()
        }

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_backend_multiplies_like_schoolbook(self, backend):
        """The engine-backed context's products run on, and count on, the backend."""
        engine = Engine(backend=backend)
        rng = random.Random(backend)  # str seeds are stable across processes
        for modulus in (SMALL_PRIME, 257, 7681):
            a = [rng.randrange(modulus) for _ in range(8)]
            b = [rng.randrange(modulus) for _ in range(8)]
            context = engine.ntt(16, modulus=modulus)
            assert context.multiply_polynomials(a, b) == _schoolbook(a, b, modulus, 16)
        assert engine.stats().multiplications == 3 * (3 * 32 + 2 * 16)


class TestOperationCounting:
    def test_butterfly_count_matches_formula(self):
        context = NttContext(SMALL_PRIME, 16)
        context.forward([0] * 16)
        stages = 4
        assert context.counter.count("modmul") == (16 // 2) * stages
        assert context.counter.count("memory_access") == 5 * (16 // 2) * stages
        assert context.counter.count("register_write") > 0

    def test_inverse_charges_its_scaling_products(self):
        context = NttContext(SMALL_PRIME, 8)
        transformed = context.forward([1] * 8)
        forward = context.counter.count("modmul")
        context.inverse(transformed)
        assert forward == (8 // 2) * 3
        assert context.counter.count("modmul") - forward == forward + 8
