"""Tests for the ArrayStats algebra and shared-stats array injection."""

from __future__ import annotations

from repro.sram.array import SramArray
from repro.sram.stats import ArrayStats


class TestArrayStatsAlgebra:
    def test_accumulate_sums_every_counter(self):
        first = ArrayStats(row_writes=2, bits_written=512, precharges=1)
        second = ArrayStats(row_writes=3, row_reads=4, precharges=2)
        first.accumulate(second)
        assert first.as_dict() == {
            "row_writes": 5,
            "row_reads": 4,
            "compute_reads": 0,
            "rows_activated": 0,
            "precharges": 3,
            "bits_written": 512,
            "read_disturb_events": 0,
        }
        # The addend is untouched.
        assert second.row_writes == 3

    def test_shared_stats_aggregate_across_arrays(self):
        shared = ArrayStats()
        left = SramArray(rows=4, cols=8, stats=shared)
        right = SramArray(rows=4, cols=8, stats=shared)
        left.write_row(0, 0xAB)
        right.write_row(1, 0xCD)
        right.activate_rows([1]).exact_value()
        assert shared.row_writes == 2
        assert shared.row_reads == 1
        assert left.stats is right.stats is shared
