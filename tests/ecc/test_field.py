"""Tests for the prime-field layer with pluggable multiplier backends."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import R4CSALutMultiplier
from repro.ecc import PrimeField
from repro.errors import ModulusError, OperandRangeError
from repro.instrumentation import OperationCounter

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF  # P-256


class TestFieldConstruction:
    def test_element_is_reduced(self):
        field = PrimeField(97)
        assert field.element(200).value == 200 % 97
        assert field.element(-1).value == 96

    def test_identities(self):
        field = PrimeField(97)
        assert field.zero().is_zero()
        assert field.one().value == 1

    def test_even_or_tiny_modulus_rejected(self):
        with pytest.raises(ModulusError):
            PrimeField(100)
        with pytest.raises(ModulusError):
            PrimeField(2)

    def test_equality_and_hash(self):
        assert PrimeField(97) == PrimeField(97)
        assert PrimeField(97) != PrimeField(101)
        assert hash(PrimeField(97)) == hash(PrimeField(97))


class TestArithmetic:
    @pytest.fixture()
    def field(self) -> PrimeField:
        return PrimeField(97)

    def test_add_mul(self, field):
        a, b = field.element(45), field.element(77)
        assert (a + b).value == (45 + 77) % 97
        assert (a * b).value == (45 * 77) % 97

    def test_inverse(self, field):
        a = field.element(45)
        assert (a.inverse() * a).value == 1

    def test_zero_has_no_inverse(self, field):
        with pytest.raises(OperandRangeError):
            field.zero().inverse()

    def test_square(self, field):
        assert field.element(9).square().value == 81

    def test_mixing_fields_rejected(self, field):
        other = PrimeField(101)
        with pytest.raises(OperandRangeError):
            field.element(1) + other.element(1)

    def test_int_operands_are_coerced(self, field):
        assert (field.element(10) * 20).value == 200 % 97
        assert field.element(10) == 10 + 97

    def test_element_range_validated(self, field):
        from repro.ecc.field import FieldElement

        with pytest.raises(OperandRangeError):
            FieldElement(97, field)

    @given(st.integers(0, P - 1), st.integers(0, P - 1))
    @settings(max_examples=40, deadline=None)
    def test_field_axioms_sample(self, a, b):
        field = PrimeField(P)
        x, y = field.element(a), field.element(b)
        assert (x + y).value == (a + b) % P
        assert (x * y).value == (a * b) % P
        assert ((x + y) * x).value == ((a + b) * a) % P


class TestBackendsAndCounting:
    def test_r4csa_backend_matches_schoolbook(self, rng):
        reference = PrimeField(P)
        hardware_algorithm = PrimeField(P, multiplier=R4CSALutMultiplier())
        for _ in range(5):
            a, b = rng.randrange(P), rng.randrange(P)
            assert (
                reference.element(a) * reference.element(b)
            ).value == (hardware_algorithm.element(a) * hardware_algorithm.element(b)).value

    def test_operation_counter(self):
        counter = OperationCounter("test")
        field = PrimeField(97, counter=counter)
        a, b = field.element(5), field.element(9)
        _ = a * b
        _ = a + b
        _ = a.inverse()
        assert counter.as_dict() == {"modadd": 1, "modinv": 1, "modmul": 1}

    def test_repr_mentions_backend(self):
        assert "schoolbook" in repr(PrimeField(97))
