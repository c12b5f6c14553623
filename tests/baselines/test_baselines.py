"""Tests for the prior-work PIM design models (Table 3 / Figure 6 inputs)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    BPNTT,
    CRYPTOPIM,
    MENTT,
    MODSRAM,
    RMNTT,
    XPOLY,
    bpntt_cycles,
    bpntt_rows,
    bpntt_transform_cycles,
    get_design,
    mentt_rows,
    modsram_rows,
    register_design,
)
from repro.baselines.base import PimDesignSpec
from repro.errors import ConfigurationError, OperandRangeError


class TestRegistry:
    def test_all_table3_designs_registered(self):
        for key in ("modsram", "mentt", "bpntt", "rm-ntt", "cryptopim", "x-poly"):
            assert get_design(key).key == key

    def test_get_design(self):
        assert get_design("mentt") is MENTT
        assert get_design("bpntt") is BPNTT
        with pytest.raises(ConfigurationError):
            get_design("unknown")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_design(
                PimDesignSpec(
                    key="mentt",
                    label="dup",
                    application="x",
                    computation_method="x",
                    technology_nm=65,
                    cell_type="6T",
                    array_size="1x1",
                    frequency_mhz=1.0,
                    native_bitwidths=(16,),
                    area_mm2=None,
                    reference="",
                )
            )


class TestMentt:
    def test_cycles_match_table3_at_256_bits(self):
        assert MENTT.cycles(256) == 66049

    def test_rows_match_paper_statement(self):
        """§5.4: computing in 256 bits requires a total of 1282 rows."""
        assert mentt_rows(256) == 1282
        assert MENTT.rows_required(256) == 1282
        # The bit-serial layout grows linearly and never fits a 64-row bank.
        rows = {bitwidth: mentt_rows(bitwidth) for bitwidth in (16, 32, 64, 128, 256)}
        assert rows[16] == 82
        assert rows[256] / rows[128] > 1.9
        assert min(rows.values()) > 64

    def test_quadratic_scaling(self):
        assert MENTT.cycles(32) == 33 * 33
        assert MENTT.cycles(256) / MENTT.cycles(128) == pytest.approx(4, rel=0.05)

    def test_spec_fields_match_table3(self):
        assert MENTT.technology_nm == 65
        assert MENTT.cell_type == "6T SRAM"
        assert MENTT.frequency_mhz == 151.0
        assert MENTT.area_mm2 == 0.36
        assert 16 in MENTT.native_bitwidths


class TestBpntt:
    def test_cycles_match_table3_at_256_bits(self):
        assert bpntt_cycles(256) == 1465
        assert BPNTT.cycles(256) == 1465

    def test_linear_scaling(self):
        assert bpntt_cycles(512) - bpntt_cycles(256) == 5 * 256

    def test_transform_cost_is_another_multiplication(self):
        assert bpntt_transform_cycles(256) == bpntt_cycles(256)

    def test_row_requirement_is_constant(self):
        assert bpntt_rows(16) == bpntt_rows(256) == 6

    def test_spec_fields_match_table3(self):
        assert BPNTT.technology_nm == 45
        assert BPNTT.frequency_mhz == 3800.0
        assert BPNTT.area_mm2 == 0.063
        assert BPNTT.computation_method == "Montgomery"


class TestReramDesigns:
    def test_no_cycle_counts_reported(self):
        for design in (RMNTT, CRYPTOPIM, XPOLY):
            assert design.cycles(256) is None

    def test_spec_fields_match_table3(self):
        assert RMNTT.technology_nm == 28
        assert RMNTT.application == "HE NTT"
        assert CRYPTOPIM.area_mm2 == 0.152
        assert CRYPTOPIM.frequency_mhz == 909.0
        assert XPOLY.area_mm2 == 0.27
        assert XPOLY.computation_method == "Barrett"


class TestModsramEntry:
    def test_cycles_match_headline(self):
        assert MODSRAM.cycles(256) == 767

    @pytest.mark.parametrize("bitwidth,cycles", ((5, 17), (9, 29), (255, 767)))
    def test_cycles_at_odd_widths_take_ceil_half_iterations(self, bitwidth, cycles):
        assert MODSRAM.cycles(bitwidth) == cycles

    def test_working_set_rows(self):
        assert modsram_rows(256) == 18
        assert MODSRAM.rows_required(256) == 18

    def test_area_and_frequency_come_from_the_models(self):
        assert MODSRAM.area_mm2 == pytest.approx(0.052, abs=0.003)
        assert MODSRAM.frequency_mhz == pytest.approx(420, abs=2)

    def test_latency_is_under_two_microseconds(self):
        latency_us = MODSRAM.cycles(256) / MODSRAM.frequency_mhz
        assert latency_us == pytest.approx(767 / 420.2, rel=0.01)

    def test_as_row_shape(self):
        row = MODSRAM.as_row(256)
        assert row["design"].startswith("This work")
        assert row["cycles"] == 767

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            MODSRAM.cycles(0)
        with pytest.raises(OperandRangeError):
            MODSRAM.rows_required(-1)
