"""Tests for the latch sense amplifier and the logic-SA module."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SenseMarginError
from repro.sram import (
    LatchSenseAmplifier,
    LogicSenseAmpModule,
    SenseAmpParameters,
    SramArray,
)


class TestSenseAmpParameters:
    def test_default_reference_levels_sit_between_discharge_levels(self):
        parameters = SenseAmpParameters()
        references = parameters.reference_voltages()
        assert len(references) == 3
        for index, reference in enumerate(references):
            above = parameters.bitline_voltage(index)
            below = parameters.bitline_voltage(index + 1)
            assert below < reference < above

    def test_bitline_voltage_decreases_with_count(self):
        parameters = SenseAmpParameters()
        voltages = [parameters.bitline_voltage(count) for count in range(4)]
        assert voltages == sorted(voltages, reverse=True)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(vdd_v=0)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(discharge_per_cell_v=-0.1)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(sense_offset_v=0.2)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(noise_sigma_v=-1)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(sense_amps_per_bitline=0)

    def test_negative_cell_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SenseAmpParameters().bitline_voltage(-1)


class TestLatchSenseAmplifier:
    def test_resolves_clear_differentials(self):
        amplifier = LatchSenseAmplifier(offset_v=0.02)
        assert amplifier.resolve(1.0, 0.5) is True
        assert amplifier.resolve(0.5, 1.0) is False
        assert amplifier.evaluations == 2

    def test_marginal_input_raises(self):
        amplifier = LatchSenseAmplifier(offset_v=0.05)
        with pytest.raises(SenseMarginError):
            amplifier.resolve(1.00, 0.99)

    def test_noise_can_flip_marginal_decisions(self):
        noisy = LatchSenseAmplifier(
            offset_v=0.001, noise_sigma_v=0.5, rng=random.Random(2)
        )
        decisions = set()
        for _ in range(100):
            try:
                decisions.add(noisy.resolve(1.0, 0.95))
            except SenseMarginError:
                decisions.add("margin")
        assert len(decisions) > 1

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LatchSenseAmplifier(offset_v=-1)
        with pytest.raises(ConfigurationError):
            LatchSenseAmplifier(noise_sigma_v=-1)


class TestLogicSenseAmpModule:
    @pytest.fixture()
    def module(self) -> LogicSenseAmpModule:
        return LogicSenseAmpModule(columns=8)

    def test_column_levels_recover_counts(self, module):
        for count in range(4):
            assert module.column_level(count) == count

    def test_decode_produces_xor3_and_maj(self, module):
        assert module.decode(0) == (0, 0)
        assert module.decode(1) == (1, 0)
        assert module.decode(2) == (0, 1)
        assert module.decode(3) == (1, 1)

    def test_evaluate_matches_bitwise_logic(self, module):
        array = SramArray(rows=4, cols=8)
        a, b, c = 0b1011_0010, 0b0111_1000, 0b1101_0110
        array.write_row(0, a)
        array.write_row(1, b)
        array.write_row(2, c)
        result = module.evaluate(array.activate_rows([0, 1, 2]))
        assert result.xor3 == a ^ b ^ c
        assert result.maj == (a & b) | (a & c) | (b & c)
        assert result.as_tuple() == (result.xor3, result.maj)
        assert module.accesses == 1

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=3),
        st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_evaluate_property(self, words, sense_amps):
        """``evaluate`` equals the per-column comparators on every access.

        With as many sense amplifiers as activated rows that is the bitwise
        XOR3/MAJ of the rows; with fewer, each column saturates at the
        number of sense amplifiers.
        """
        parameters = SenseAmpParameters(sense_amps_per_bitline=sense_amps)
        module = LogicSenseAmpModule(columns=8, parameters=parameters)
        array = SramArray(rows=3, cols=8)
        for row, word in enumerate(words):
            array.write_row(row, word)
        readout = array.activate_rows(list(range(len(words))))
        result = module.evaluate(readout)
        xor3_word = maj_word = 0
        for column, count in enumerate(readout.column_counts):
            xor3_bit, maj_bit = module.decode(module.column_level(count))
            xor3_word |= xor3_bit << column
            maj_word |= maj_bit << column
        assert (result.xor3, result.maj) == (xor3_word, maj_word)
        if sense_amps >= len(words):
            a, b, c = words + [0] * (3 - len(words))
            assert result.xor3 == a ^ b ^ c
            assert result.maj == (a & b) | (a & c) | (b & c)

    def test_width_mismatch_rejected(self, module):
        array = SramArray(rows=3, cols=16)
        array.write_row(0, 1)
        with pytest.raises(ConfigurationError):
            module.evaluate(array.activate_rows([0]))

    def test_worst_case_margin_is_half_a_step(self, module):
        assert module.worst_case_margin_v() == pytest.approx(0.125)

    def test_failure_probability_increases_with_noise(self, module):
        quiet = module.failure_probability(0.01)
        noisy = module.failure_probability(0.10)
        assert 0.0 <= quiet < noisy < 0.5
        sweep = [module.failure_probability(mv * 1e-3) for mv in (5, 15, 30, 45, 60)]
        assert sweep == sorted(sweep)
        assert sweep[0] < 1e-80  # essentially never at nominal noise
        assert sweep[-1] > 1e-3  # clearly broken at 60 mV sigma

    def test_failure_probability_zero_without_noise(self, module):
        assert module.failure_probability(0.0) == 0.0

    @pytest.mark.parametrize("sigma", (0.05, 0.06))
    def test_analytic_probability_brackets_the_noisy_amplifier(self, module, sigma):
        """At the worst-case margin the erfc model sits between the two outcomes.

        A comparison flips when the noise crosses the margin plus the
        offset, and fails (flip or margin error) once it crosses the margin
        minus the offset; the model counts the margin itself.
        """
        amplifier = LatchSenseAmplifier(
            offset_v=module.parameters.sense_offset_v,
            noise_sigma_v=sigma,
            rng=random.Random(7),
        )
        trials, flips, failures = 20000, 0, 0
        for _ in range(trials):
            try:
                flipped = amplifier.resolve(0.0, module.worst_case_margin_v())
            except SenseMarginError:
                failures += 1
                continue
            flips += flipped
            failures += flipped
        analytic = module.failure_probability(sigma)
        assert flips / trials < analytic < failures / trials

    def test_noisy_sensing_runs_every_column_comparator(self):
        parameters = SenseAmpParameters(noise_sigma_v=1e-4)
        module = LogicSenseAmpModule(columns=8, parameters=parameters)
        array = SramArray(rows=3, cols=8)
        a, b, c = 0b1011_0010, 0b0111_1000, 0b1101_0110
        for row, word in enumerate((a, b, c)):
            array.write_row(row, word)
        result = module.evaluate(array.activate_rows([0, 1, 2]))
        assert result.xor3 == a ^ b ^ c
        assert result.maj == (a & b) | (a & c) | (b & c)
        assert module._amplifier.evaluations == 8 * 3

    def test_invalid_column_count_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicSenseAmpModule(columns=0)
