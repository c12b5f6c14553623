"""Tests for the word-line decoders, the timing model and the energy model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SramAccessError
from repro.sram import (
    DEFAULT_65NM_TIMING,
    DecoderBank,
    EnergyModel,
    SramArray,
    TimingModel,
    WordlineDecoder,
)


class TestWordlineDecoder:
    def test_one_hot_output(self):
        decoder = WordlineDecoder(rows=8)
        assert decoder.decode([5]) == (0, 0, 0, 0, 0, 1, 0, 0)

    def test_multi_hot_output(self):
        decoder = WordlineDecoder(rows=8, max_active=3)
        onehot = decoder.decode([1, 4, 6])
        assert sum(onehot) == 3
        assert onehot[1] == onehot[4] == onehot[6] == 1

    def test_activation_counting(self):
        decoder = WordlineDecoder(rows=8, max_active=3)
        decoder.decode([0])
        decoder.decode([1, 2])
        assert decoder.activations == 2
        assert decoder.wordlines_raised == 3

    def test_too_many_rows_rejected(self):
        decoder = WordlineDecoder(rows=8, max_active=2)
        with pytest.raises(SramAccessError):
            decoder.decode([0, 1, 2])

    def test_out_of_range_address_rejected(self):
        with pytest.raises(SramAccessError):
            WordlineDecoder(rows=8).decode([8])

    def test_duplicates_rejected(self):
        with pytest.raises(SramAccessError):
            WordlineDecoder(rows=8, max_active=2).decode([3, 3])

    def test_empty_request_rejected(self):
        with pytest.raises(SramAccessError):
            WordlineDecoder(rows=8).decode([])

    def test_address_bits(self):
        assert WordlineDecoder(rows=64).address_bits == 6
        assert WordlineDecoder(rows=60).address_bits == 6

    def test_tiny_decoder_rejected(self):
        with pytest.raises(SramAccessError):
            WordlineDecoder(rows=1)


class TestDecoderBank:
    def test_for_array_builds_read_and_write_decoders(self):
        bank = DecoderBank.for_array(64)
        assert bank.read_decoder.max_active == 3
        assert bank.write_decoder.max_active == 1


class TestTimingModel:
    def test_default_frequency_matches_paper(self):
        assert DEFAULT_65NM_TIMING.frequency_mhz == pytest.approx(420.0, rel=0.02)

    def test_cycle_time_is_the_critical_path(self):
        timing = TimingModel()
        assert timing.cycle_time_ns == pytest.approx(
            max(timing.read_compute_latency_ns, timing.write_latency_ns)
        )

    def test_scaling_to_smaller_node_speeds_up(self):
        scaled = DEFAULT_65NM_TIMING.scaled_to(28)
        assert scaled.frequency_mhz > DEFAULT_65NM_TIMING.frequency_mhz
        assert scaled.technology_nm == 28

    def test_as_dict_contains_derived_figures(self):
        data = TimingModel().as_dict()
        assert "frequency_mhz" in data and "cycle_time_ns" in data

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimingModel(precharge_ns=0)
        with pytest.raises(ConfigurationError):
            TimingModel().scaled_to(0)


class TestEnergyModel:
    def test_energy_from_stats(self):
        array = SramArray(rows=8, cols=16)
        array.write_row(0, 0xFFFF)
        array.write_row(1, 0x0F0F)
        array.write_row(2, 0x1111)
        array.activate_rows([0, 1, 2])
        model = EnergyModel(columns=16)
        breakdown = model.from_stats(array.stats, flipflop_writes=32)
        assert breakdown.total_pj > 0
        assert breakdown.write_pj > breakdown.near_memory_pj
        assert breakdown.as_dict()["total_pj"] == pytest.approx(breakdown.total_pj)

    def test_compute_reads_cost_more_sensing_than_plain_reads(self):
        model = EnergyModel(columns=16)
        plain = SramArray(rows=4, cols=16)
        plain.write_row(0, 1)
        plain.activate_rows([0]).exact_value()
        compute = SramArray(rows=4, cols=16)
        compute.write_row(0, 1)
        compute.activate_rows([0, 1, 2])
        assert (
            model.from_stats(compute.stats).sensing_pj
            > model.from_stats(plain.stats).sensing_pj
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(columns=0)
        with pytest.raises(ConfigurationError):
            EnergyModel(write_fj_per_bit=-1)
        model = EnergyModel()
        array = SramArray(rows=4, cols=16)
        with pytest.raises(ConfigurationError):
            model.from_stats(array.stats, flipflop_writes=-1)
