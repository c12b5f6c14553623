"""Tests for the multi-macro chip model, its scheduler and workload jobs."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, OperandRangeError
from repro.modsram import (
    AnalyticalCostModel,
    AnalyticalModSRAM,
    Chip,
    ChipScheduler,
    ModSRAMConfig,
    MultiplicationJob,
    PAPER_CONFIG,
)
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.workloads import (
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_jobs,
    scalar_multiplication_jobs,
)


def jobs(*keys: str):
    return [MultiplicationJob(multiplicand=key) for key in keys]


class TestChipScheduler:
    def test_single_macro_matches_the_cost_algebra(self):
        scheduler = ChipScheduler(1, PAPER_CONFIG)
        model = AnalyticalCostModel(PAPER_CONFIG)
        schedule = scheduler.schedule(jobs("a", "a", "b"))
        assert schedule.jobs == 3
        assert schedule.lut_refills == 2  # "a" then "b"; the middle job reuses
        assert schedule.makespan_cycles == (
            3 * model.iteration_cycles() + 2 * model.radix4_refill_cycles()
        )
        assert schedule.lut_reuse_rate == pytest.approx(1 / 3)

    def test_independent_jobs_spread_across_macros(self):
        schedule = ChipScheduler(4, PAPER_CONFIG).schedule(
            jobs(*[f"k{i}" for i in range(16)])
        )
        assert schedule.per_macro_jobs == (4, 4, 4, 4)
        assert schedule.utilization == pytest.approx(1.0)

    def test_reuse_aware_placement_keeps_a_stream_on_its_macro(self):
        # Two interleaved streams with distinct multiplicands: the scheduler
        # must route each stream to the macro holding its LUT.
        interleaved = jobs(*(["a", "b"] * 8))
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule(interleaved)
        assert schedule.lut_refills == 2  # one per stream, not per job
        assert schedule.lut_reuse_rate == pytest.approx(14 / 16)
        assert schedule.per_macro_jobs == (8, 8)

    def test_more_macros_reduce_makespan(self):
        stream = list(scalar_multiplication_jobs(64))
        single = ChipScheduler(1, PAPER_CONFIG).schedule(stream)
        quad = ChipScheduler(4, PAPER_CONFIG).schedule(stream)
        assert quad.jobs == single.jobs
        assert quad.makespan_cycles < single.makespan_cycles
        assert quad.throughput_mops > single.throughput_mops
        # Speedup cannot exceed the macro count.
        assert single.makespan_cycles / quad.makespan_cycles <= 4.0 + 1e-9

    def test_empty_stream(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule([])
        assert schedule.jobs == 0
        assert schedule.makespan_cycles == 0
        assert schedule.throughput_mops == 0.0
        assert schedule.lut_reuse_rate == 0.0

    def test_invalid_macro_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ChipScheduler(0)
        with pytest.raises(ConfigurationError):
            Chip(-1)

    def test_as_dict_round_trips_the_key_quantities(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule(jobs("a", "b", "a"))
        data = schedule.as_dict()
        assert data["macros"] == 2
        assert data["jobs"] == 3
        assert data["makespan_cycles"] == schedule.makespan_cycles
        assert data["lut_reuse_rate"] == schedule.lut_reuse_rate


class TestChipExecution:
    def test_products_match_the_single_macro_tier(self, rng):
        config = ModSRAMConfig().with_bitwidth(16)
        chip = Chip(3, config)
        reference = AnalyticalModSRAM(config)
        modulus = 65521
        for _ in range(6):
            a, b = rng.randrange(modulus), rng.randrange(modulus)
            assert (
                chip.multiply(a, b, modulus).product
                == reference.multiply(a, b, modulus).product
                == (a * b) % modulus
            )

    def test_activity_accounts_every_job(self, rng):
        config = ModSRAMConfig().with_bitwidth(16)
        chip = Chip(2, config)
        modulus = 65521
        for i in range(1, 7):
            chip.multiply(i, 7, modulus)
        activity = chip.activity()
        assert activity.jobs == 6
        assert sum(activity.per_macro_jobs) == 6
        # Both macros fill the LUT once (spreading beats queueing), then
        # every later job reuses one of the resident copies.
        assert activity.lut_refills == 2
        assert activity.lut_reuse_rate == pytest.approx(4 / 6)

    def test_idle_macros_prefer_refill_over_queueing(self):
        config = ModSRAMConfig().with_bitwidth(16)
        chip = Chip(4, config)
        for i in range(1, 9):
            chip.multiply(i, 7, 65521)
        activity = chip.activity()
        # The first four jobs each claim an idle macro (a refill is cheaper
        # than waiting behind the resident LUT); the next four all reuse.
        assert activity.lut_refills == 4
        assert activity.per_macro_jobs == (2, 2, 2, 2)
        assert activity.lut_reuse_rate == pytest.approx(0.5)

    def test_a_rejected_multiplication_is_not_charged(self):
        chip = Chip(2, ModSRAMConfig().with_bitwidth(16))
        chip.multiply(3, 7, 65521)
        before = chip.activity()
        with pytest.raises(OperandRangeError):
            chip.multiply(65521, 7, 65521)
        assert chip.activity() == before

    def test_macro_accessor(self):
        chip = Chip(2, ModSRAMConfig().with_bitwidth(16))
        assert isinstance(chip.macro(0), AnalyticalModSRAM)
        assert chip.macros == 2

    def test_chip_stats_merge_every_macro(self, rng):
        config = ModSRAMConfig().with_bitwidth(16)
        chip = Chip(2, config)
        for _ in range(4):
            chip.multiply(rng.randrange(65521), rng.randrange(65521), 65521)
        merged = chip.stats()
        per_macro = [chip.macro(index).host.stats for index in range(2)]
        assert merged.row_writes == sum(stats.row_writes for stats in per_macro)
        assert merged.compute_reads == sum(
            stats.compute_reads for stats in per_macro
        )
        assert all(stats.row_writes > 0 for stats in per_macro)  # both worked

    def test_chip_energy_report_is_chip_wide(self, rng):
        config = ModSRAMConfig().with_bitwidth(16)
        chip = Chip(2, config)
        for a, b in [(11, 13), (17, 19)]:
            chip.multiply(a, b, 65521)
        chip_energy = chip.energy_report().total_pj
        macro_energy = sum(
            chip.macro(index).energy_report().total_pj for index in range(2)
        )
        assert chip_energy == pytest.approx(macro_energy)
        assert chip_energy > 0


class TestEccJobs:
    def test_point_operation_scopes_multiplicands(self):
        doubling = list(scalar_multiplication_jobs(1, additions=0))
        assert len(doubling) == len(DOUBLING_SEQUENCE)
        assert all(job.multiplicand.startswith("dbl[0].") for job in doubling)

    def test_scalar_multiplication_jobs_counts(self):
        stream = list(scalar_multiplication_jobs(64))
        expected = 64 * len(DOUBLING_SEQUENCE) + 32 * len(MIXED_ADDITION_SEQUENCE)
        assert len(stream) == expected

    def test_ecdsa_sign_jobs_extend_the_scalar_multiplication(self):
        bits = 32
        sign = list(ecdsa_sign_jobs(bits))
        scalar_mult = list(scalar_multiplication_jobs(bits))
        # Inversion: bits squarings + bits // 2 multiplies; plus two products.
        assert len(sign) == len(scalar_mult) + bits + bits // 2 + 2

    def test_multiple_signatures_do_not_share_luts(self):
        two = list(ecdsa_sign_jobs(16, signatures=2))
        one = list(ecdsa_sign_jobs(16, signatures=1))
        assert len(two) == 2 * len(one)
        assert len({job.multiplicand for job in two}) == 2 * len(
            {job.multiplicand for job in one}
        )

    def test_jobs_validation(self):
        with pytest.raises(OperandRangeError, match="scalar_bits must be positive"):
            list(scalar_multiplication_jobs(0))
        with pytest.raises(OperandRangeError, match="signatures must be positive"):
            list(ecdsa_sign_jobs(64, signatures=0))
        with pytest.raises(OperandRangeError, match="scalar_bits must be positive"):
            list(ecdsa_sign_jobs(0))


class TestZkpJobs:
    def test_ntt_jobs_count(self):
        size = 256
        stream = list(ntt_jobs(size))
        assert len(stream) == (size // 2) * 8  # n/2 * log2(n)

    def test_ntt_twiddle_groups_are_consecutive(self):
        stream = list(ntt_jobs(64))
        seen = []
        for job in stream:
            if not seen or seen[-1] != job.multiplicand:
                seen.append(job.multiplicand)
        # Every distinct twiddle appears exactly once as a run.
        assert len(seen) == len(set(seen))

    def test_ntt_reuse_dominates_on_one_macro(self):
        schedule = ChipScheduler(1, PAPER_CONFIG).schedule(ntt_jobs(256))
        # Distinct twiddles: 2^0 + ... + 2^7 = 255 refills for 1024 jobs.
        assert schedule.lut_refills == 255
        assert schedule.lut_reuse_rate > 0.7

    def test_ntt_jobs_validation(self):
        with pytest.raises(OperandRangeError, match="power of two"):
            list(ntt_jobs(3))
        with pytest.raises(OperandRangeError, match="power of two"):
            list(ntt_jobs(0))

    def test_msm_jobs_structure(self):
        stream = list(msm_jobs(8, window_bits=2, scalar_bits=8))
        assert stream  # non-empty
        windows = 4  # ceil(8 / 2)
        buckets = 3  # 2^2 - 1
        additions = windows * (8 + 2 * buckets) + windows  # buckets + horner
        doublings = windows * 2
        expected = additions * len(MIXED_ADDITION_SEQUENCE) + doublings * len(
            DOUBLING_SEQUENCE
        )
        assert len(stream) == expected

    def test_msm_jobs_validation(self):
        with pytest.raises(OperandRangeError, match="points must be positive"):
            list(msm_jobs(0))
        with pytest.raises(OperandRangeError, match="scalar_bits must be positive"):
            list(msm_jobs(8, scalar_bits=0))
        with pytest.raises(OperandRangeError, match="window size must be positive"):
            list(msm_jobs(8, window_bits=-1))
