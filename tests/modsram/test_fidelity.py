"""Tests for the layered simulation core: fidelity-tier parity and algebra."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.carry_save import xor3_maj
from repro.errors import (
    ConfigurationError,
    OperandRangeError,
    ReproError,
    TierMismatchError,
)
from repro.modsram import (
    AnalyticalCostModel,
    AnalyticalModSRAM,
    Fidelity,
    ModSRAMAccelerator,
    ModSRAMConfig,
    PAPER_CONFIG,
    build_simulator,
)
from repro.modsram.config import OVERFLOW_LUT_ROWS, build_design_config
from repro.modsram.fidelity import checked_multiply, cross_check

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47
SECP256K1_P = 2**256 - 2**32 - 977

#: (bits, cold pJ, warm pJ): one multiplication at the paper schedule that
#: fills the LUTs, and one that reuses them, as both tiers charge it.
ENERGY_AT_WIDTH = (
    (64, 195.69, 193.11),
    (128, 459.60, 454.44),
    (256, 1198.79, 1188.47),
)


def tiers(config: ModSRAMConfig):
    return ModSRAMAccelerator(config), AnalyticalModSRAM(config)


def assert_fast_tier_counts_match(cycle, analytical):
    """Cumulative access, datapath and operation counts equal the cycle tier's."""
    host = analytical.host
    assert host.stats.as_dict() == cycle.array.stats.as_dict()
    assert host.datapath.stats.as_dict() == cycle.datapath.stats.as_dict()
    assert host.counter.as_dict() == cycle.counter.as_dict()


class TestProductParity:
    """The cycle and analytical tiers return identical products."""

    @pytest.mark.parametrize(
        "modulus,config",
        [
            (BN254_P, PAPER_CONFIG),  # 254-bit, paper n/2 schedule
            (SECP256K1_P, ModSRAMConfig()),  # full 256-bit range
        ],
        ids=["bn254-paper", "secp256k1-full-range"],
    )
    def test_randomised_parity_at_paper_widths(self, modulus, config, rng):
        cycle, analytical = tiers(config)
        for _ in range(2):
            a, b = rng.randrange(modulus), rng.randrange(modulus)
            expected = (a * b) % modulus
            assert cycle.multiply(a, b, modulus).product == expected
            assert analytical.multiply(a, b, modulus).product == expected

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_randomised_parity_16_bit(self, data):
        modulus = data.draw(st.integers(1 << 14, (1 << 16) - 1).map(lambda v: v | 1))
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        config = ModSRAMConfig().with_bitwidth(16)
        cycle, analytical = tiers(config)
        expected = (a * b) % modulus
        assert cycle.multiply(a, b, modulus).product == expected
        assert analytical.multiply(a, b, modulus).product == expected

    def test_fast_tiers_enforce_the_same_preconditions(self):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(16)
        simulator = AnalyticalModSRAM(config)
        with pytest.raises(OperandRangeError):
            simulator.multiply(65521, 1, 65521)  # unreduced operand
        with pytest.raises(OperandRangeError):
            simulator.multiply(0x8000, 1, 0xFFF1)  # paper-mode top bit
        with pytest.raises(OperandRangeError):
            simulator.multiply(1, 1, 97)  # modulus far below the macro


class TestFastTierParityProperty:
    """The analytical tier's word-level loop agrees with the cycle kernel.

    Products, cycle reports, access statistics, datapath activity and
    operation counts, over random operand sequences whose multiplicands
    repeat (so the LUTs are reused) in both range modes.
    """

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fast_tiers_match_the_cycle_tier(self, data):
        bits = data.draw(st.integers(4, 32), label="bits")
        full_range = data.draw(st.booleans(), label="full_range")
        config = ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(bits)
        modulus = data.draw(
            st.integers(max(3, 1 << (bits - 3)), (1 << bits) - 1), label="modulus"
        )
        limit = modulus
        if not full_range:
            limit = min(modulus, 1 << (2 * config.iterations - 1))
        multiplicands = data.draw(
            st.lists(st.integers(0, modulus - 1), min_size=1, max_size=3),
            label="multiplicands",
        )
        calls = data.draw(
            st.lists(
                st.tuples(st.integers(0, limit - 1), st.sampled_from(multiplicands)),
                min_size=1,
                max_size=6,
            ),
            label="calls",
        )
        cycle, analytical = tiers(config)
        for a, b in calls:
            measured = cycle.multiply(a, b, modulus)
            modelled = analytical.multiply(a, b, modulus)
            assert measured.product == a * b % modulus
            assert modelled.product == measured.product
            assert modelled.report == measured.report
        assert_fast_tier_counts_match(cycle, analytical)


class TestExtraOverflowFolds:
    """A macro whose modulus fills its width can need a second overflow fold.

    When the overflow index exceeds the overflow LUT's last row, the kernel
    writes the partial result back and folds again: one more logic-SA
    access and two more write-backs, three cycles.  Every tier takes the
    same path.
    """

    @pytest.mark.parametrize(
        "bits,a,b,modulus,iteration_cycles",
        [(12, 565, 187, 3585, 38), (16, 9490, 58192, 59009, 50)],
    )
    def test_every_tier_folds_once_more(self, bits, a, b, modulus, iteration_cycles):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bits)
        assert iteration_cycles == 6 * config.iterations - 1 + 3
        cycle, analytical = tiers(config)
        for simulator in (cycle, analytical, build_simulator("hdl", config)):
            result = simulator.multiply(a, b, modulus)
            assert result.product == a * b % modulus
            assert result.report.extra_overflow_folds == 1
            assert result.report.iteration_cycles == iteration_cycles
        assert_fast_tier_counts_match(cycle, analytical)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_fold_that_escapes_is_not_followed_by_one_that_does(self, data):
        """At most one fold per iteration lets a bit escape.

        Every LUT entry is below the modulus, so its bit ``n`` is clear and
        MAJ's bit ``n`` is ``sum_n & carry_n``.  When that bit escapes,
        XOR3's bit ``n`` is ``1 ^ 1 ^ 0 = 0``: the new sum has bit ``n``
        clear, so the next fold's MAJ bit ``n`` is 0 and nothing escapes.
        The pending carry-out is therefore one bit, the overflow index is at
        most 3 + 3 + 1 + 4 = 11 and one extra fold covers it.
        """
        n = data.draw(st.integers(3, 64), label="n")
        top = 1 << n
        entry, following, sum_low, carry_low = (
            data.draw(st.integers(0, top - 1), label=label)
            for label in ("entry", "following entry", "sum", "carry")
        )
        # MAJ's bit n escapes exactly when the sum and carry both have it.
        new_sum, maj = xor3_maj(entry, sum_low | top, carry_low | top)
        assert maj & top
        assert not new_sum & top
        new_carry = (maj << 1) & (2 * top - 1)
        _, next_maj = xor3_maj(following, new_sum, new_carry)
        assert not next_maj & top
        # A fold takes at most the last overflow row's value, so two folds
        # cover the largest index.
        assert 3 + 3 + 1 + 4 <= 2 * (OVERFLOW_LUT_ROWS - 1)


class TestAnalyticalExactness:
    """The analytical tier's reports match the cycle tier field by field."""

    def test_paper_schedule_767_cycles(self, rng):
        analytical = AnalyticalModSRAM(PAPER_CONFIG)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        report = analytical.multiply(a, b, BN254_P).report
        assert report.iterations == 128
        assert report.iteration_cycles == 767

    @pytest.mark.parametrize("bitwidth", [16, 24, 48])
    @pytest.mark.parametrize("full_range", [True, False])
    def test_total_cycles_match_cycle_tier_exactly(self, bitwidth, full_range, rng):
        config = ModSRAMConfig(
            extend_for_full_range=full_range
        ).with_bitwidth(bitwidth)
        cycle = ModSRAMAccelerator(config)
        analytical = AnalyticalModSRAM(config)
        modulus = ((1 << bitwidth) - 5) | 1
        for _ in range(3):
            a = rng.randrange(modulus)
            if not full_range:
                a >>= 1  # paper schedule: keep the top bit clear
            b = rng.randrange(modulus)
            measured = cycle.multiply(a, b, modulus).report
            modelled = analytical.multiply(a, b, modulus).report
            assert modelled == measured  # every field, including totals
            assert modelled.total_cycles == measured.total_cycles

    def test_lut_reuse_flows_through_the_cost_model(self):
        config = ModSRAMConfig().with_bitwidth(16)
        analytical = AnalyticalModSRAM(config)
        first = analytical.multiply(111, 222, 65521).report
        second = analytical.multiply(333, 222, 65521).report
        assert not first.lut_reused and first.precompute_cycles > 0
        assert second.lut_reused and second.precompute_cycles == 0

    def test_cost_model_against_measured_budget(self, rng):
        config = ModSRAMConfig().with_bitwidth(32)
        model = AnalyticalCostModel(config)
        accelerator = ModSRAMAccelerator(config)
        modulus = ((1 << 32) - 5) | 1
        report = accelerator.multiply(
            rng.randrange(modulus), rng.randrange(modulus), modulus
        ).report
        assert model.load_cycles() == report.load_cycles
        assert model.lut_fill_cycles() == report.precompute_cycles
        assert model.iteration_cycles() == report.iteration_cycles
        assert model.total_cycles(
            subtractions=report.finalize_cycles - 2
        ) == report.total_cycles


class TestAccessStatsParity:
    """Closed-form access profiles match the real array."""

    def test_analytical_closed_form_matches_measured_stats(self, rng):
        config = ModSRAMConfig().with_bitwidth(16)
        cycle = ModSRAMAccelerator(config)
        result = cycle.multiply(12345, 54321, 65521)
        model = AnalyticalCostModel(config)
        closed_form = model.array_stats(
            reused=result.report.lut_reused,
            extra_folds=result.report.extra_overflow_folds,
        )
        assert closed_form.as_dict() == cycle.array.stats.as_dict()

    @pytest.mark.parametrize(
        "full_range,a,b,modulus",
        [(True, 12345, 54321, 65521), (False, 9490, 58192, 59009)],
        ids=("no-extra-fold", "one-extra-fold"),
    )
    def test_register_closed_form_matches_measured_datapath(
        self, full_range, a, b, modulus
    ):
        config = ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(16)
        cycle = ModSRAMAccelerator(config)
        result = cycle.multiply(a, b, modulus)
        closed_form = AnalyticalCostModel(config).datapath_stats(
            result.report.extra_overflow_folds
        )
        assert closed_form.as_dict() == cycle.datapath.stats.as_dict()

    def test_analytical_energy_is_positive_and_tier_consistent(self):
        config = ModSRAMConfig().with_bitwidth(16)
        cycle = ModSRAMAccelerator(config)
        analytical = AnalyticalModSRAM(config)
        cycle.multiply(11, 13, 65521)
        analytical.multiply(11, 13, 65521)
        measured = cycle.energy_report()
        modelled = analytical.energy_report()
        assert modelled.total_pj > 0
        # Same array profile => identical array-side energy components.
        assert modelled.precharge_pj == pytest.approx(measured.precharge_pj)
        assert modelled.wordline_pj == pytest.approx(measured.wordline_pj)
        assert modelled.write_pj == pytest.approx(measured.write_pj)


class TestCostModelEnergy:
    """The closed form prices a multiplication as both tiers charge it."""

    @pytest.mark.parametrize("bits,cold_pj,warm_pj", ENERGY_AT_WIDTH)
    def test_energy_equals_what_the_tiers_charge(self, bits, cold_pj, warm_pj):
        config = build_design_config(bits)
        model = AnalyticalCostModel(config)
        rng = random.Random(1)
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        first = rng.randrange(modulus) >> 1  # paper schedule: top bit clear
        b = rng.randrange(modulus)
        second = rng.randrange(modulus) >> 1
        for simulator in tiers(config):
            result = simulator.multiply(first, b, modulus)
            assert result.report.extra_overflow_folds == 0
            cold = simulator.energy_report().total_pj
            result = simulator.multiply(second, b, modulus)
            assert result.report.lut_reused
            assert result.report.extra_overflow_folds == 0
            warm = simulator.energy_report().total_pj - cold
            assert model.energy(reused=False).total_pj == cold
            assert model.energy(reused=True).total_pj == pytest.approx(warm)
        assert model.energy(reused=False).total_pj == pytest.approx(
            cold_pj, abs=0.005
        )
        assert model.energy(reused=True).total_pj == pytest.approx(
            warm_pj, abs=0.005
        )


class TestFidelitySelection:
    def test_build_simulator_types(self):
        assert isinstance(build_simulator("cycle"), ModSRAMAccelerator)
        assert isinstance(build_simulator("analytical"), AnalyticalModSRAM)
        assert isinstance(
            build_simulator(Fidelity.ANALYTICAL), AnalyticalModSRAM
        )

    def test_unknown_fidelity_is_rejected(self):
        for fidelity in ("rtl", "functional"):
            with pytest.raises(ConfigurationError, match="unknown fidelity"):
                build_simulator(fidelity)

    def test_unknown_fidelity_error_names_the_valid_tiers(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_simulator("netlist")
        message = str(excinfo.value)
        for tier in Fidelity:
            assert tier.value in message

    def test_hdl_tier_builds_the_event_driven_simulator(self):
        from repro.hdl.eventsim import HdlModSRAM

        config = ModSRAMConfig().with_bitwidth(16)
        simulator = build_simulator("hdl", config)
        assert isinstance(simulator, HdlModSRAM)
        assert isinstance(build_simulator(Fidelity.HDL, config), HdlModSRAM)
        result = simulator.multiply(123, 456, 65521)
        assert result.product == 123 * 456 % 65521

    def test_coerce_accepts_mixed_case_strings(self):
        assert Fidelity.coerce("CYCLE") is Fidelity.CYCLE
        assert Fidelity.coerce("hdl") is Fidelity.HDL



def skew(monkeypatch, tier, product=0, iteration_cycles=0):
    """Make ``tier.multiply`` return products and main loops off by these."""
    original = tier.multiply

    def multiply(self, a, b, modulus):
        result = original(self, a, b, modulus)
        report = replace(
            result.report,
            iteration_cycles=result.report.iteration_cycles + iteration_cycles,
        )
        return replace(result, product=result.product + product, report=report)

    monkeypatch.setattr(tier, "multiply", multiply)


class TestCrossCheck:
    """The one checked run every exhibit and checker goes through."""

    CONFIG = ModSRAMConfig().with_bitwidth(16)

    def test_agreeing_tiers_pass_and_are_timed(self):
        simulators = [build_simulator(tier, self.CONFIG) for tier in Fidelity]
        check = cross_check(simulators, 123, 456, 65521)
        assert check.failed == ()
        assert [r.product for r in check.results] == [123 * 456 % 65521] * 3
        assert len(check.seconds) == 3 and min(check.seconds) >= 0.0

    def test_failed_checks_name_the_tier(self, monkeypatch):
        skew(monkeypatch, ModSRAMAccelerator, product=1, iteration_cycles=1)
        simulators = tiers(self.CONFIG)[::-1]  # analytical first
        check = cross_check(simulators, 123, 456, 65521)
        assert check.failed == ("cycle product", "cycle report")

    def test_reports_are_compared_to_the_first_simulator(self):
        cycle = ModSRAMAccelerator(self.CONFIG)
        cycle.multiply(5, 456, 65521)  # leaves the LUT for b=456 resident
        check = cross_check((AnalyticalModSRAM(self.CONFIG), cycle), 7, 456, 65521)
        # The earlier run also left its energy on the cycle tier's report.
        assert check.failed == ("cycle report", "cycle energy")

    def test_energy_is_compared_between_the_tiers_that_report_it(
        self, monkeypatch
    ):
        original = ModSRAMAccelerator.energy_report

        def one_pj_high(self):
            report = original(self)
            return replace(report, near_memory_pj=report.near_memory_pj + 1.0)

        monkeypatch.setattr(ModSRAMAccelerator, "energy_report", one_pj_high)
        # The RTL tier keeps no energy report: the analytical tier's is the
        # first one taken.
        simulators = [
            build_simulator(tier, self.CONFIG) for tier in ("hdl", "analytical", "cycle")
        ]
        check = cross_check(simulators, 123, 456, 65521)
        assert check.failed == ("cycle energy",)

    def test_checked_multiply_returns_the_simulators_result(self):
        result = checked_multiply(ModSRAMAccelerator(self.CONFIG), 123, 456, 65521)
        assert result.product == 123 * 456 % 65521
        closed_form = AnalyticalModSRAM(self.CONFIG).multiply(123, 456, 65521)
        assert result.report == closed_form.report

    def test_checked_multiply_raises_naming_tier_width_and_operands(
        self, monkeypatch
    ):
        skew(monkeypatch, ModSRAMAccelerator, iteration_cycles=1)
        with pytest.raises(TierMismatchError) as excinfo:
            checked_multiply(ModSRAMAccelerator(self.CONFIG), 3, 4, 65521)
        assert isinstance(excinfo.value, ReproError)
        assert str(excinfo.value) == (
            "cycle tier at 16 bits failed cycle report for a=0x3, b=0x4, "
            "modulus=0xfff1"
        )

    def test_checked_multiply_also_checks_the_closed_form(self, monkeypatch):
        skew(monkeypatch, AnalyticalModSRAM, product=1)
        with pytest.raises(TierMismatchError, match="failed analytical product"):
            checked_multiply(ModSRAMAccelerator(self.CONFIG), 3, 4, 65521)
