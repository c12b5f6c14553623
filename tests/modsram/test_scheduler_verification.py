"""Tests for the point-operation scheduler and the equivalence checker."""

from __future__ import annotations

import pytest

from repro.errors import MemoryMapError
from repro.modsram import (
    AnalyticalCostModel,
    EquivalenceChecker,
    ModSRAMConfig,
    PAPER_CONFIG,
    PointOperationScheduler,
)
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.modsram.verification import directed_operands


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


class TestEquivalenceChecker:
    def test_directed_operands_cover_corner_cases(self):
        pairs = directed_operands(65521, 16)
        assert (0, 0) in pairs
        assert (65520, 65520) in pairs
        assert all(0 <= a < 65521 and 0 <= b < 65521 for a, b in pairs)

    def test_checker_passes_on_a_small_macro(self):
        checker = EquivalenceChecker(ModSRAMConfig().with_bitwidth(20))
        modulus = ((1 << 20) - 3) | 1
        report = checker.run(modulus, random_cases=6, seed=1)
        assert report.passed
        assert report.total == 6 + len(directed_operands(modulus, 20))
        assert report.constant_time()
        assert "PASS" in report.summary()

    def test_checker_paper_mode_masks_the_top_bit(self):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(16)
        checker = EquivalenceChecker(config)
        report = checker.run(65521, random_cases=4, seed=2)
        assert report.passed
        for case in report.cases:
            assert case.a < (1 << 15)

    def test_checker_without_directed_cases(self):
        checker = EquivalenceChecker(ModSRAMConfig().with_bitwidth(16))
        report = checker.run(65521, random_cases=3, include_directed=False)
        assert report.total == 3

    def test_invalid_case_count_rejected(self):
        from repro.errors import ConfigurationError

        checker = EquivalenceChecker(ModSRAMConfig().with_bitwidth(16))
        with pytest.raises(ConfigurationError):
            checker.run(65521, random_cases=-1)

    def test_failure_detection(self):
        """A corrupted result is reported as a failure, not silently accepted."""
        from repro.modsram.verification import VerificationCase, VerificationReport

        bad_case = VerificationCase(
            a=1, b=1, modulus=7, expected=1,
            accelerator_product=2, algorithm_product=1, iteration_cycles=11,
            failed=("cycle product",),
        )
        report = VerificationReport(modulus=7, bitwidth=3, cases=[bad_case])
        assert not report.passed
        assert len(report.failures) == 1
        assert "FAIL" in report.summary()

    def test_a_drifting_cycle_report_fails_every_case(self, monkeypatch):
        """Products can all be right and the schedule still wrong."""
        from dataclasses import replace

        from repro.modsram import ModSRAMAccelerator

        original = ModSRAMAccelerator.multiply

        def one_cycle_late(self, a, b, modulus):
            result = original(self, a, b, modulus)
            late = result.report.iteration_cycles + 1
            return replace(result, report=replace(result.report, iteration_cycles=late))

        monkeypatch.setattr(ModSRAMAccelerator, "multiply", one_cycle_late)
        checker = EquivalenceChecker(ModSRAMConfig().with_bitwidth(16))
        report = checker.run(65521, random_cases=2, include_directed=False)
        assert [case.failed for case in report.cases] == [("cycle report",)] * 2
        assert all(case.accelerator_product == case.expected for case in report.cases)
        assert report.summary().startswith("FAIL (2 mismatches)")
