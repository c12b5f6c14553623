"""Tests for the SRAM array model (ports, multi-row reads, statistics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReadDisturbError, SramAccessError
from repro.sram import EightTransistorCell, SixTransistorCell, SramArray


@pytest.fixture()
def array() -> SramArray:
    return SramArray(rows=16, cols=32, cell=EightTransistorCell)


class TestReadWrite:
    def test_write_then_read_round_trip(self, array):
        array.write_row(3, 0xDEADBEEF)
        assert array.activate_rows([3]).exact_value() == 0xDEADBEEF

    def test_rows_start_at_zero(self, array):
        assert array.activate_rows([7]).exact_value() == 0

    def test_write_validates_row_index(self, array):
        with pytest.raises(SramAccessError):
            array.write_row(16, 1)

    def test_write_validates_value_width(self, array):
        with pytest.raises(SramAccessError):
            array.write_row(0, 1 << 32)
        with pytest.raises(SramAccessError):
            array.write_row(0, -1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SramAccessError):
            SramArray(rows=0, cols=8)


class TestMultiRowActivation:
    def test_column_counts_reflect_stored_ones(self, array):
        array.write_row(0, 0b1100)
        array.write_row(1, 0b1010)
        array.write_row(2, 0b1001)
        readout = array.activate_rows([0, 1, 2])
        assert readout.column_counts[0] == 1
        assert readout.column_counts[1] == 1
        assert readout.column_counts[2] == 1
        assert readout.column_counts[3] == 3
        assert readout.column_counts[4] == 0

    def test_exact_value_requires_single_row(self, array):
        array.write_row(0, 7)
        with pytest.raises(SramAccessError):
            array.activate_rows([0, 1]).exact_value()

    def test_duplicate_rows_rejected(self, array):
        with pytest.raises(SramAccessError):
            array.activate_rows([1, 1])

    def test_empty_activation_rejected(self, array):
        with pytest.raises(SramAccessError):
            array.activate_rows([])

    def test_four_rows_exceed_8t_limit(self, array):
        with pytest.raises(ReadDisturbError):
            array.activate_rows([0, 1, 2, 3])

    def test_6t_array_rejects_multi_row_reads(self):
        array = SramArray(rows=8, cols=8, cell=SixTransistorCell)
        with pytest.raises(ReadDisturbError):
            array.activate_rows([0, 1])
        assert array.stats.read_disturb_events == 1

    def test_6t_array_permissive_mode_records_disturbs(self):
        array = SramArray(rows=8, cols=8, cell=SixTransistorCell, strict_disturb=False)
        array.activate_rows([0, 1])
        assert array.stats.read_disturb_events == 1

    @given(st.lists(st.integers(0, 255), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_counts_equal_bitwise_sum(self, words):
        array = SramArray(rows=4, cols=8)
        for row, word in enumerate(words):
            array.write_row(row, word)
        readout = array.activate_rows([0, 1, 2])
        for column in range(8):
            expected = sum((word >> column) & 1 for word in words)
            assert readout.column_counts[column] == expected


class TestStatsAndDebug:
    def test_stats_count_reads_and_writes(self, array):
        array.write_row(0, 1)
        array.write_row(1, 2)
        array.activate_rows([0]).exact_value()
        array.activate_rows([0, 1])
        stats = array.stats
        assert stats.row_writes == 2
        assert stats.row_reads == 2
        assert stats.compute_reads == 1
        assert stats.rows_activated == 3
        assert stats.precharges == 2
        assert stats.bits_written == 2 * 32

    def test_stats_as_dict(self, array):
        array.write_row(0, 1)
        assert array.stats.as_dict()["row_writes"] == 1

    def test_repr(self, array):
        assert "8T" in repr(array)
