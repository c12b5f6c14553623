"""Tests for the 6T / 8T SRAM cell models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.modsram import PAPER_CONFIG
from repro.modsram.area import AreaModel
from repro.sram import EightTransistorCell, SixTransistorCell


class TestCellStructure:
    def test_transistor_counts(self):
        assert SixTransistorCell.transistor_count == 6
        assert EightTransistorCell.transistor_count == 8

    def test_8t_has_separate_read_port(self):
        assert not EightTransistorCell.shared_read_write_port
        assert SixTransistorCell.shared_read_write_port

    def test_8t_supports_three_row_activation(self):
        """The logic-SA scheme needs three simultaneously activated rows."""
        assert EightTransistorCell.max_simultaneous_reads >= 3
        assert SixTransistorCell.max_simultaneous_reads == 1


class TestDisturbRisk:
    def test_6t_multi_row_read_is_risky(self):
        assert SixTransistorCell.disturb_risk(2)
        assert SixTransistorCell.disturb_risk(3)
        assert not SixTransistorCell.disturb_risk(1)

    def test_8t_tolerates_three_rows(self):
        assert not EightTransistorCell.disturb_risk(3)
        assert EightTransistorCell.disturb_risk(4)

    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            EightTransistorCell.disturb_risk(0)


class TestArea:
    def test_paper_array_area_is_two_thirds_of_macro(self):
        """64 x 256 8T cells come to roughly 0.035 mm^2 (67% of 0.053)."""
        model = AreaModel(PAPER_CONFIG)
        area_mm2 = model.sram_array_area_um2() * 1e-6
        assert area_mm2 == pytest.approx(model.parameters.cell_area_um2 * 64 * 256 * 1e-6)
        assert 0.032 < area_mm2 < 0.038
