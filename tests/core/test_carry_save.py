"""The one carry-save adder definition: XOR3/MAJ on whole words.

``r4csa-lut``, ``csa-interleaved``, the analytical tier's word-level loop
and the logic-SA's ideal-sensing path all call :func:`xor3_maj`.  The
register invariant below is the one the carry-save algorithms rely on: an
addition into ``WIDTH``-bit sum/carry registers keeps the value exact up
to one escaped bit.  The shifts by two that spill into the overflow index
are written inline in the algorithms; ``tests/core/test_r4csa_lut.py``
bounds that index and ``tests/core/test_word_level_pins.py`` pins the
traces.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.carry_save import xor3_maj

WIDTH = 16
MASK = (1 << WIDTH) - 1
word = st.integers(0, MASK)


def _add(sum_word: int, carry_word: int, addend: int):
    """Carry-save add into the registers: ``(sum, carry, escaped)``.

    MAJ is written back shifted left by one; the bit that leaves the
    register escapes.
    """
    new_sum, major = xor3_maj(addend, sum_word, carry_word)
    major <<= 1
    return new_sum, major & MASK, major >> WIDTH


class TestTruthTables:
    @pytest.mark.parametrize("a,b,c", list(itertools.product((0, 1), repeat=3)))
    def test_xor3_truth_table(self, a, b, c):
        assert xor3_maj(a, b, c)[0] == (a + b + c) % 2

    @pytest.mark.parametrize("a,b,c", list(itertools.product((0, 1), repeat=3)))
    def test_maj_truth_table(self, a, b, c):
        assert xor3_maj(a, b, c)[1] == (1 if a + b + c >= 2 else 0)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_csa_identity(self, a, b, c):
        """XOR3 plus shifted MAJ equals the arithmetic sum (the CSA identity)."""
        xor3, maj = xor3_maj(a, b, c)
        assert xor3 + (maj << 1) == a + b + c

    @given(word, word, word)
    def test_outputs_stay_within_the_inputs_width(self, a, b, c):
        xor3, maj = xor3_maj(a, b, c)
        assert xor3 <= MASK and maj <= MASK


class TestAdd:
    @given(word, word, word)
    def test_add_preserves_value_with_escape(self, s, c, addend):
        new_sum, new_carry, escaped = _add(s, c, addend)
        assert new_sum + new_carry + (escaped << WIDTH) == s + c + addend

    @given(word, word, word)
    def test_escape_is_a_single_bit(self, s, c, addend):
        assert _add(s, c, addend)[2] in (0, 1)
