"""Tests for the radix-4 Booth encoder (Table 1a)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.booth import (
    RADIX4_ENCODER_TABLE,
    booth_digit_count,
    booth_digit_radix4,
    booth_digits_radix4,
    encoder_truth_table,
)
from repro.errors import BitWidthError, OperandRangeError


class TestEncoderTable:
    def test_paper_table_1a_values(self):
        """The encoder matches Table 1a of the paper row by row."""
        expected = {
            (0, 0, 0): 0,
            (0, 0, 1): +1,
            (0, 1, 0): +1,
            (0, 1, 1): +2,
            (1, 0, 0): -2,
            (1, 0, 1): -1,
            (1, 1, 0): -1,
            (1, 1, 1): 0,
        }
        assert RADIX4_ENCODER_TABLE == expected

    def test_encoder_function_matches_table(self):
        for (high, mid, low), digit in RADIX4_ENCODER_TABLE.items():
            assert booth_digit_radix4(high, mid, low) == digit

    def test_encoder_is_the_booth_identity(self):
        """digit == a_{i-1} + a_i - 2*a_{i+1} for every input combination."""
        for (high, mid, low), digit in RADIX4_ENCODER_TABLE.items():
            assert digit == low + mid - 2 * high

    def test_encoder_rejects_non_bits(self):
        with pytest.raises(OperandRangeError):
            booth_digit_radix4(2, 0, 0)

    def test_truth_table_export_has_eight_sorted_rows(self):
        rows = encoder_truth_table()
        assert len(rows) == 8
        assert rows[0] == (0, 0, 0, 0)
        assert rows[-1] == (1, 1, 1, 0)

    def test_truth_table_rows_are_the_encoder(self):
        for high, mid, low, digit in encoder_truth_table():
            assert booth_digit_radix4(high, mid, low) == digit


class TestDigitCount:
    def test_paper_iteration_count_at_256_bits(self):
        assert booth_digit_count(256, full_range=False) == 128
        assert booth_digit_count(256, full_range=True) == 129

    def test_odd_bitwidth_needs_no_extra_digit(self):
        assert booth_digit_count(255, full_range=True) == 128
        assert booth_digit_count(255, full_range=False) == 128

    @pytest.mark.parametrize(
        "digit_bits,paper,full", ((1, 256, 257), (2, 128, 129), (3, 86, 86), (4, 64, 65))
    )
    def test_the_rule_at_every_radix(self, digit_bits, paper, full):
        """ceil(n / k) digits at radix 2^k; full range adds one when k divides n."""
        assert booth_digit_count(256, False, digit_bits) == paper
        assert booth_digit_count(256, True, digit_bits) == full

    def test_invalid_bitwidth(self):
        with pytest.raises(BitWidthError):
            booth_digit_count(0)

    def test_count_is_the_expansion_length(self):
        for bitwidth in range(1, 81):
            for full_range in (True, False):
                digits = booth_digits_radix4(0, bitwidth, full_range=full_range)
                assert len(digits) == booth_digit_count(bitwidth, full_range), bitwidth


class TestRadix4Digits:
    def test_digits_are_most_significant_first(self):
        digits = booth_digits_radix4(0b0110, 4, full_range=False)
        # 6 = 2*4 - 2: digits (MSB first) are [+2, -2].
        assert digits == [2, -2]

    def test_known_small_value(self):
        # 0b1010 = 10; with full_range the expansion uses 3 digits.
        digits = booth_digits_radix4(10, 4, full_range=True)
        value = 0
        for digit in digits:
            value = value * 4 + digit
        assert value == 10

    @given(st.integers(0, 2**64 - 1))
    def test_expansion_reconstructs_value_full_range(self, value):
        digits = booth_digits_radix4(value, 64, full_range=True)
        reconstructed = 0
        for digit in digits:
            reconstructed = reconstructed * 4 + digit
        assert reconstructed == value

    @given(st.integers(0, 2**63 - 1))
    def test_expansion_reconstructs_value_paper_mode(self, value):
        """With the top bit clear the paper's n/2 digit count is exact."""
        digits = booth_digits_radix4(value, 64, full_range=False)
        assert len(digits) == 32
        reconstructed = 0
        for digit in digits:
            reconstructed = reconstructed * 4 + digit
        assert reconstructed == value

    @given(st.integers(0, 2**64 - 1))
    def test_digits_are_valid_booth_digits(self, value):
        for digit in booth_digits_radix4(value, 64):
            assert digit in (-2, -1, 0, 1, 2)

    def test_paper_mode_rejects_top_bit_set(self):
        with pytest.raises(OperandRangeError):
            booth_digits_radix4(1 << 63, 64, full_range=False)

    def test_value_outside_bitwidth_rejected(self):
        with pytest.raises(BitWidthError):
            booth_digits_radix4(1 << 8, 8)

    def test_negative_value_rejected(self):
        with pytest.raises(OperandRangeError):
            booth_digits_radix4(-1, 8)

    def test_zero_expansion(self):
        assert all(d == 0 for d in booth_digits_radix4(0, 16))

    @given(st.data())
    def test_odd_widths_recode_every_operand_in_paper_mode(self, data):
        """At odd widths the paper's ceil(n/2) digits leave a padding top bit."""
        bitwidth = data.draw(st.integers(0, 150)) * 2 + 1
        value = data.draw(st.integers(0, (1 << bitwidth) - 1))
        digits = booth_digits_radix4(value, bitwidth, full_range=False)
        assert len(digits) == (bitwidth + 1) // 2
        reconstructed = 0
        for digit in digits:
            reconstructed = reconstructed * 4 + digit
        assert reconstructed == value

    @given(st.integers(0, 2**64 - 1))
    def test_most_significant_digit_is_non_negative(self, value):
        """An unsigned operand never recodes to a negative leading digit."""
        assert booth_digits_radix4(value, 64)[0] >= 0
