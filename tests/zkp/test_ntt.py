"""Tests for the number-theoretic transform."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine
from repro.errors import NttError
from repro.zkp import NttContext, bit_reverse_indices, find_root_of_unity

#: A small NTT-friendly prime: 97 - 1 = 2^5 * 3.
SMALL_PRIME = 97
#: The BN254 scalar field (2-adicity 28), the field ZKP systems transform over.
BN254_R = 0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001


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
        expected = [0] * 32
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                expected[(i + j)] = (expected[i + j] + x * y) % BN254_R
        assert product == expected

    def test_degree_bound_enforced(self):
        context = NttContext(SMALL_PRIME, 8)
        with pytest.raises(NttError):
            context.multiply_polynomials([1] * 5, [1] * 2)


class TestOperationCounting:
    def test_butterfly_count_matches_formula(self):
        context = NttContext(SMALL_PRIME, 16)
        context.forward([0] * 16)
        stages = 4
        assert context.counter.count("modmul") == (16 // 2) * stages
        assert context.counter.count("memory_access") == 5 * (16 // 2) * stages
        assert context.counter.count("register_write") > 0

    def test_scopes_separate_forward_and_inverse(self):
        context = NttContext(SMALL_PRIME, 8)
        context.inverse(context.forward([1] * 8))
        assert "forward" in context.counter.scopes()
        assert "inverse" in context.counter.scopes()
        assert context.counter.scoped("inverse")["modmul"] > context.counter.scoped(
            "forward"
        )["modmul"]
