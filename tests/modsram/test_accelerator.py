"""Tests for the cycle-level ModSRAM accelerator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OperandRangeError
from repro.modsram import (
    ModSRAMAccelerator,
    ModSRAMConfig,
    MultiplicationResult,
    PAPER_CONFIG,
    Phase,
)

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47
SECP256K1_P = 2**256 - 2**32 - 977


def small_accelerator(bitwidth: int = 16, full_range: bool = True) -> ModSRAMAccelerator:
    config = ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(bitwidth)
    return ModSRAMAccelerator(config)


class TestFunctionalCorrectness:
    def test_small_known_product(self):
        accelerator = small_accelerator()
        result = accelerator.multiply(1234, 5678, 65521)
        assert result.product == (1234 * 5678) % 65521

    def test_zero_and_identity(self):
        accelerator = small_accelerator()
        assert accelerator.multiply(0, 999, 65521).product == 0
        assert accelerator.multiply(1, 999, 65521).product == 999

    def test_maximal_operands(self):
        accelerator = small_accelerator()
        assert accelerator.multiply(65520, 65520, 65521).product == 1

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_16_bit(self, data):
        modulus = data.draw(st.integers(1 << 14, (1 << 16) - 1).map(lambda v: v | 1))
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        accelerator = small_accelerator()
        assert accelerator.multiply(a, b, modulus).product == (a * b) % modulus

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_oracle_48_bit(self, data):
        modulus = data.draw(st.integers(1 << 46, (1 << 48) - 1).map(lambda v: v | 1))
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        accelerator = small_accelerator(48)
        assert accelerator.multiply(a, b, modulus).product == (a * b) % modulus

    def test_bn254_on_paper_configuration(self, rng):
        accelerator = ModSRAMAccelerator(PAPER_CONFIG)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        result = accelerator.multiply(a, b, BN254_P)
        assert result.product == (a * b) % BN254_P

    def test_secp256k1_on_full_range_configuration(self, rng):
        accelerator = ModSRAMAccelerator(ModSRAMConfig())
        a, b = rng.randrange(SECP256K1_P), rng.randrange(SECP256K1_P)
        result = accelerator.multiply(a, b, SECP256K1_P)
        assert result.product == (a * b) % SECP256K1_P


class TestCycleCounts:
    def test_paper_headline_767_cycles(self, rng):
        """The central claim: 767 main-loop cycles for one 256-bit multiply."""
        accelerator = ModSRAMAccelerator(PAPER_CONFIG)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        report = accelerator.multiply(a, b, BN254_P).report
        assert report.iterations == 128
        assert report.iteration_cycles == 767
        assert report.extra_overflow_folds == 0

    def test_cycle_count_is_data_independent(self):
        accelerator = small_accelerator()
        cycles = set()
        for a, b in ((0, 0), (1, 1), (65520, 65520), (12345, 54321)):
            cycles.add(accelerator.multiply(a, b, 65521).report.iteration_cycles)
        assert len(cycles) == 1

    def test_cycle_count_matches_schedule_formula(self):
        for bitwidth in (8, 16, 24, 32):
            accelerator = small_accelerator(bitwidth, full_range=False)
            modulus = (1 << bitwidth) - 5 if bitwidth != 24 else (1 << 24) - 3
            modulus |= 1
            a = (modulus - 3) >> 1  # keep the top bit clear for paper mode
            result = accelerator.multiply(a, 3, modulus)
            assert result.report.iteration_cycles == 3 * bitwidth - 1
            assert (
                result.report.iteration_cycles
                == accelerator.config.expected_iteration_cycles
            )

    def test_full_range_configuration_costs_six_more_cycles(self):
        paper = small_accelerator(16, full_range=False)
        full = small_accelerator(16, full_range=True)
        a, b, modulus = 0x3FFF, 0x7ABC, 0xFFF1
        assert (
            full.multiply(a, b, modulus).report.iteration_cycles
            - paper.multiply(a, b, modulus).report.iteration_cycles
            == 6
        )

    def test_report_totals_and_latency(self):
        accelerator = small_accelerator()
        report = accelerator.multiply(11, 13, 65521).report
        assert report.total_cycles == (
            report.load_cycles
            + report.precompute_cycles
            + report.iteration_cycles
            + report.finalize_cycles
        )
        assert report.latency_us == pytest.approx(
            report.iteration_cycles / report.frequency_mhz
        )
        assert report.as_dict()["iteration_cycles"] == report.iteration_cycles

    def test_lut_reuse_skips_precompute_cycles(self):
        accelerator = small_accelerator()
        first = accelerator.multiply(111, 222, 65521).report
        second = accelerator.multiply(333, 222, 65521).report
        assert not first.lut_reused
        assert second.lut_reused
        assert first.precompute_cycles > 0
        assert second.precompute_cycles == 0
        third = accelerator.multiply(333, 223, 65521).report
        assert not third.lut_reused


class TestOperandValidation:
    def test_operands_must_be_reduced(self):
        accelerator = small_accelerator()
        with pytest.raises(OperandRangeError):
            accelerator.multiply(65521, 1, 65521)
        with pytest.raises(OperandRangeError):
            accelerator.multiply(-1, 1, 65521)

    def test_modulus_must_fit_the_macro(self):
        accelerator = small_accelerator(16)
        with pytest.raises(OperandRangeError):
            accelerator.multiply(1, 1, (1 << 17) - 1)

    def test_modulus_must_not_be_much_smaller_than_the_macro(self):
        accelerator = small_accelerator(16)
        with pytest.raises(OperandRangeError):
            accelerator.multiply(1, 1, 97)

    def test_paper_mode_rejects_top_bit_set_multiplier(self):
        accelerator = small_accelerator(16, full_range=False)
        with pytest.raises(OperandRangeError):
            accelerator.multiply(0x8000, 1, 0xFFF1)

    def test_tiny_modulus_rejected(self):
        accelerator = small_accelerator()
        with pytest.raises(OperandRangeError):
            accelerator.multiply(0, 0, 2)


class TestHardwareActivity:
    def test_array_statistics_reflect_the_schedule(self):
        accelerator = small_accelerator()
        accelerator.multiply(11, 13, 65521)
        iterations = accelerator.config.iterations
        stats = accelerator.array.stats
        # Two logic-SA accesses per iteration.
        assert stats.compute_reads == 2 * iterations
        # Every compute access activates exactly three rows.
        assert stats.rows_activated >= 3 * stats.compute_reads

    def test_no_read_disturb_on_the_8t_array(self):
        accelerator = small_accelerator()
        accelerator.multiply(11, 13, 65521)
        assert accelerator.array.stats.read_disturb_events == 0

    def test_counter_tracks_imc_accesses_and_writes(self):
        accelerator = small_accelerator()
        accelerator.multiply(11, 13, 65521)
        counts = accelerator.counter.as_dict()
        assert counts["imc_access"] == 2 * accelerator.config.iterations
        assert counts["memory_write"] > 0
        assert counts["modmul"] == 1

    def test_energy_report_is_positive(self):
        accelerator = small_accelerator()
        accelerator.multiply(11, 13, 65521)
        assert accelerator.energy_report().total_pj > 0

    def test_a_repeated_multiplicand_reuses_luts(self):
        accelerator = small_accelerator()
        pairs = [(1, 7), (2, 7), (3, 7)]
        results = [accelerator.multiply(a, b, 65521) for a, b in pairs]
        assert [r.report.lut_reused for r in results] == [False, True, True]
        assert all(
            r.product == (a * 7) % 65521 for r, (a, _) in zip(results, pairs)
        )


class TestTrace:
    def test_trace_disabled_by_default(self):
        accelerator = small_accelerator()
        result = accelerator.multiply(5, 7, 65521)
        assert len(result.trace) == 0

    def test_trace_records_every_cycle(self):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(8)
        accelerator = ModSRAMAccelerator(config, trace=True)
        result = accelerator.multiply(0x2A, 0x51, 0xF1)
        report = result.report
        assert len(result.trace) == report.total_cycles
        histogram = result.trace.phase_histogram()
        assert histogram[Phase.IMC_RADIX4.value] == report.iterations
        assert histogram[Phase.IMC_OVERFLOW.value] == report.iterations

    def test_trace_compute_accesses_use_three_rows(self):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(8)
        accelerator = ModSRAMAccelerator(config, trace=True)
        trace = accelerator.multiply(0x2A, 0x51, 0xF1).trace
        compute = [event for event in trace.events if event.phase.is_compute_access()]
        assert compute
        for event in compute:
            assert len(event.rows_read) == 3

    def test_last_iteration_elides_the_carry_writeback(self):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(8)
        accelerator = ModSRAMAccelerator(config, trace=True)
        trace = accelerator.multiply(0x2A, 0x51, 0xF1).trace
        last_iteration = accelerator.config.iterations - 1
        phases = [
            event.phase for event in trace.events if event.iteration == last_iteration
        ]
        assert phases.count(Phase.WRITEBACK_CARRY) == 1
        assert phases.count(Phase.WRITEBACK_SUM) == 2
