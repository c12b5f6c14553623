"""Tests for the point-operation scheduler and the corner-case corpus."""

from __future__ import annotations

import pytest

from repro.core.algorithms.r4csa_lut import R4CSALutMultiplier
from repro.errors import MemoryMapError
from repro.modsram import (
    AnalyticalCostModel,
    AnalyticalModSRAM,
    ModSRAMAccelerator,
    ModSRAMConfig,
    PAPER_CONFIG,
    PointOperationScheduler,
)
from repro.modsram.fidelity import cross_check
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE


class TestPointOperationScheduler:
    @pytest.fixture()
    def scheduler(self) -> PointOperationScheduler:
        return PointOperationScheduler(PAPER_CONFIG)

    def test_mixed_addition_structure(self, scheduler):
        schedule = scheduler.schedule_mixed_addition()
        assert schedule.multiplication_count == len(MIXED_ADDITION_SEQUENCE) == 11
        assert schedule.iteration_cycles == 11 * 767
        assert schedule.lut_rows_used == 13

    def test_doubling_structure(self, scheduler):
        schedule = scheduler.schedule_doubling()
        assert schedule.multiplication_count == len(DOUBLING_SEQUENCE) == 8
        assert schedule.iteration_cycles == 8 * 767

    def test_operands_fit_the_array(self, scheduler):
        """§5.2: the 64-row array accommodates a point addition's operands."""
        schedule = scheduler.schedule_mixed_addition()
        assert schedule.operand_rows_used <= PAPER_CONFIG.operand_capacity
        assert schedule.operand_rows_used + schedule.lut_rows_used + 2 <= PAPER_CONFIG.rows

    def test_lut_reuse_detected_for_repeated_multiplicands(self, scheduler):
        schedule = scheduler.schedule(
            [("p1", "a", "b"), ("p2", "c", "b"), ("p3", "d", "b"), ("p4", "e", "f")],
            preloaded=("a", "b", "c", "d", "e", "f", "modulus"),
        )
        reused = [entry.lut_reused for entry in schedule.multiplications]
        assert reused == [False, True, True, False]
        assert schedule.lut_reuse_rate == pytest.approx(0.5)
        assert schedule.precompute_cycles == (
            2 * AnalyticalCostModel(PAPER_CONFIG).radix4_refill_cycles()
        )

    def test_every_value_gets_a_unique_row(self, scheduler):
        schedule = scheduler.schedule_mixed_addition()
        row_of_name = {}
        for entry in schedule.multiplications:
            for name, row in (
                (entry.multiplier, entry.multiplier_row),
                (entry.multiplicand, entry.multiplicand_row),
                (entry.product, entry.product_row),
            ):
                row_of_name.setdefault(name, row)
                assert row_of_name[name] == row  # a value never moves rows
        # Distinct values occupy distinct rows, all within the operand region.
        assert len(set(row_of_name.values())) == len(row_of_name)
        # The only preloaded value not touched by a multiplication is the modulus.
        assert len(row_of_name) == schedule.operand_rows_used - 1

    def test_overflowing_the_operand_region_is_detected(self):
        scheduler = PointOperationScheduler(ModSRAMConfig(rows=18).with_bitwidth(16))
        # rows=18 leaves exactly 3 operand rows; this sequence needs more.
        with pytest.raises(MemoryMapError):
            scheduler.schedule([("p", "a", "b"), ("q", "c", "d")],
                               preloaded=("a", "b", "modulus"))

    def test_doubling_preloads_the_curve_constant(self, scheduler):
        """The doubling schedule seeds x1/y1/z1, the modulus and 'three'."""
        schedule = scheduler.schedule_doubling()
        rows = {}
        for entry in schedule.multiplications:
            rows[entry.multiplier] = entry.multiplier_row
            rows[entry.multiplicand] = entry.multiplicand_row
            rows[entry.product] = entry.product_row
        assert "three" in rows  # the a=0 doubling needs 3*XX
        # Preloaded values occupy the first operand slots, in order.
        preloaded_rows = [rows[name] for name in ("x1", "y1", "z1")]
        assert preloaded_rows == sorted(preloaded_rows)

    def test_doubling_lut_reuse_profile(self, scheduler):
        """No two consecutive doubling multiplications share a multiplicand,
        so every one of the eight pays the radix-4 refill."""
        schedule = scheduler.schedule_doubling()
        assert [entry.lut_reused for entry in schedule.multiplications] == (
            [False] * len(DOUBLING_SEQUENCE)
        )
        assert schedule.lut_reuse_rate == 0.0
        refill = AnalyticalCostModel(PAPER_CONFIG).radix4_refill_cycles()
        assert schedule.precompute_cycles == len(DOUBLING_SEQUENCE) * refill

    def test_doubling_operands_fit_the_array(self, scheduler):
        schedule = scheduler.schedule_doubling()
        assert schedule.operand_rows_used <= PAPER_CONFIG.operand_capacity
        assert schedule.operand_rows_used < (
            scheduler.schedule_mixed_addition().operand_rows_used
        )

    def test_doubling_every_value_gets_a_unique_row(self, scheduler):
        schedule = scheduler.schedule_doubling()
        row_of_name = {}
        for entry in schedule.multiplications:
            for name, row in (
                (entry.multiplier, entry.multiplier_row),
                (entry.multiplicand, entry.multiplicand_row),
                (entry.product, entry.product_row),
            ):
                row_of_name.setdefault(name, row)
                assert row_of_name[name] == row
        assert len(set(row_of_name.values())) == len(row_of_name)

    def test_doubling_total_cycles_compose(self, scheduler):
        schedule = scheduler.schedule_doubling()
        assert schedule.total_cycles == (
            schedule.iteration_cycles + schedule.precompute_cycles
        )
        assert schedule.as_dict()["operation"] == "doubling"
        assert schedule.latency_us(420.0) == pytest.approx(
            schedule.total_cycles / 420.0
        )

    def test_scalar_multiplication_projection(self, scheduler):
        cycles = scheduler.scalar_multiplication_cycles(255)
        doubling = scheduler.schedule_doubling().total_cycles
        addition = scheduler.schedule_mixed_addition().total_cycles
        assert cycles == 255 * doubling + 127 * addition
        with pytest.raises(MemoryMapError):
            scheduler.scalar_multiplication_cycles(0)

    def test_summary_dict(self, scheduler):
        summary = scheduler.schedule_mixed_addition().as_dict()
        assert summary["multiplications"] == 11
        assert summary["total_cycles"] == summary["iteration_cycles"] + summary["precompute_cycles"]


def directed_operands(modulus: int, bitwidth: int):
    """The corner cases hardware verification drives, as operand pairs.

    All-zero and all-one operands, values straddling half the modulus, and
    single-bit walks through the multiplier that reach every Booth window;
    the multiplicand ``modulus - 1`` fills the overflow LUT's range.
    """
    top, half = modulus - 1, modulus >> 1
    pairs = [
        (0, 0), (0, top), (1, 1), (1, top),
        (top, top), (half, half), (half, half + 1), (top, 1),
    ]
    for position in range(0, bitwidth, max(1, bitwidth // 8)):
        bit = 1 << position
        pairs += [(bit, top), (bit | 1, half)]
    return pairs


class TestDirectedCorpus:
    """The corner-case corpus on both tiers and the algorithm, both schedules."""

    @pytest.mark.parametrize("full_range", [True, False], ids=["full-range", "paper"])
    @pytest.mark.parametrize("bitwidth,modulus", [
        (16, 65521),
        (20, ((1 << 20) - 3) | 1),
        (32, ((1 << 32) - 5) | 1),
    ])
    def test_corner_cases_agree_and_take_the_law(self, bitwidth, modulus, full_range):
        config = ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(bitwidth)
        tiers = (AnalyticalModSRAM(config), ModSRAMAccelerator(config))
        algorithm = R4CSALutMultiplier(full_range=full_range)
        # The paper schedule needs the multiplier's top bit clear.
        mask = (1 << bitwidth if full_range else 1 << (bitwidth - 1)) - 1
        loops = set()
        for a, b in directed_operands(modulus, bitwidth):
            a &= mask
            check = cross_check(tiers, a, b, modulus)
            assert check.failed == (), (a, b)
            assert algorithm.multiply(a, b, modulus) == a * b % modulus
            loops.add(check.results[1].report.iteration_cycles)
        assert loops == {config.expected_iteration_cycles}

    def test_corpus_covers_the_corners(self):
        pairs = directed_operands(65521, 16)
        assert (0, 0) in pairs and (65520, 65520) in pairs
        assert all(0 <= a < 65521 and 0 <= b < 65521 for a, b in pairs)
        assert {a for a, _ in pairs} >= {1 << k for k in range(0, 16, 2)}
