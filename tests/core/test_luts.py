"""Tests for the precomputation LUT builders (Tables 1b and 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.luts import (
    RADIX4_DIGIT_ORDER,
    build_overflow_lut,
    build_radix4_lut,
)
from repro.ecc.curves_data import CURVE_SPECS
from repro.errors import ModulusError, OperandRangeError

BN254_P = CURVE_SPECS["bn254"].field_modulus


class TestRadix4Lut:
    def test_entries_match_table_1b(self):
        modulus = 97
        multiplicand = 33
        lut = build_radix4_lut(multiplicand, modulus)
        assert lut[0] == 0
        assert lut[+1] == 33
        assert lut[+2] == 66
        assert lut[-2] == (97 - 66)
        assert lut[-1] == (97 - 33)

    def test_row_order_matches_paper(self):
        lut = build_radix4_lut(5, 97)
        assert [digit for digit, _ in lut.rows()] == list(RADIX4_DIGIT_ORDER)

    def test_only_three_entries_need_computation(self):
        lut = build_radix4_lut(5, 97)
        assert lut.computed_entry_count() == 3

    def test_five_entries(self):
        assert len(build_radix4_lut(5, 97).entries) == 5

    @given(st.integers(3, 10**6))
    @settings(max_examples=60)
    def test_entries_are_reduced_and_congruent(self, modulus):
        modulus |= 1
        multiplicand = modulus // 3
        lut = build_radix4_lut(multiplicand, modulus)
        for digit in RADIX4_DIGIT_ORDER:
            value = lut[digit]
            assert 0 <= value < modulus
            assert value % modulus == (digit * multiplicand) % modulus

    def test_bn254_entries_are_reduced(self):
        lut = build_radix4_lut(BN254_P - 1, BN254_P)
        for digit in RADIX4_DIGIT_ORDER:
            assert 0 <= lut[digit] < BN254_P
            assert lut[digit] == (digit * (BN254_P - 1)) % BN254_P

    def test_unknown_digit_rejected(self):
        with pytest.raises(OperandRangeError):
            build_radix4_lut(5, 97)[3]

    def test_multiplicand_out_of_range_rejected(self):
        with pytest.raises(OperandRangeError):
            build_radix4_lut(97, 97)

    def test_small_modulus_rejected(self):
        with pytest.raises(ModulusError):
            build_radix4_lut(0, 2)


class TestOverflowLut:
    def test_paper_rows_are_the_first_eight(self):
        lut = build_overflow_lut(97, 8, entry_count=16)
        assert len(lut.paper_rows()) == 8
        assert lut.paper_rows()[0] == (0, 0)

    def test_entries_are_weighted_residues(self):
        # A small modulus, and Table 2 at BN254 on the 257-bit register.
        for modulus, register_width in ((251, 9), (BN254_P, 257)):
            lut = build_overflow_lut(modulus, register_width)
            for index in range(len(lut)):
                assert lut[index] == (index << register_width) % modulus

    def test_entry_zero_is_zero(self):
        assert build_overflow_lut(997, 11)[0] == 0

    @given(st.integers(3, 2**40), st.integers(4, 64))
    @settings(max_examples=60)
    def test_entries_always_reduced(self, modulus, register_width):
        modulus |= 1
        lut = build_overflow_lut(modulus, register_width)
        for _, value in lut.rows():
            assert 0 <= value < modulus

    def test_index_out_of_range_rejected(self):
        lut = build_overflow_lut(97, 8, entry_count=8)
        with pytest.raises(OperandRangeError):
            lut[8]

    def test_invalid_register_width_rejected(self):
        with pytest.raises(OperandRangeError):
            build_overflow_lut(97, 0)

    def test_invalid_entry_count_rejected(self):
        with pytest.raises(OperandRangeError):
            build_overflow_lut(97, 8, entry_count=0)

    def test_default_entry_count_matches_table_2(self):
        assert len(build_overflow_lut(97, 8)) == 8
