"""Tests for the ModSRAM configuration and memory map."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MemoryMapError
from repro.modsram import PAPER_CONFIG, MemoryMap, ModSRAMConfig
from repro.sram import SixTransistorCell


class TestConfig:
    def test_paper_configuration(self):
        assert PAPER_CONFIG.bitwidth == 256
        assert PAPER_CONFIG.rows == 64
        assert PAPER_CONFIG.columns == 256
        assert PAPER_CONFIG.technology_nm == 65
        assert PAPER_CONFIG.iterations == 128
        assert PAPER_CONFIG.expected_iteration_cycles == 767

    def test_default_configuration_is_full_range(self):
        config = ModSRAMConfig()
        assert config.extend_for_full_range
        assert config.iterations == 129
        assert config.expected_iteration_cycles == 773

    def test_register_width_is_n_plus_one(self):
        assert ModSRAMConfig().register_width == 257

    def test_lut_and_intermediate_rows(self):
        config = ModSRAMConfig()
        assert config.lut_rows == 13
        assert config.operand_capacity == 49
        assert config.minimum_rows == 18

    def test_frequency_comes_from_timing_model(self):
        assert ModSRAMConfig().frequency_mhz == pytest.approx(420.0, rel=0.02)
        assert abs(PAPER_CONFIG.frequency_mhz - 420.0) < 5

    def test_with_bitwidth_resizes_columns(self):
        config = ModSRAMConfig().with_bitwidth(64)
        assert config.bitwidth == 64
        assert config.columns == 64
        assert config.rows == 64

    def test_columns_must_cover_bitwidth(self):
        with pytest.raises(ConfigurationError):
            ModSRAMConfig(bitwidth=256, columns=128)

    def test_rows_must_fit_memory_map(self):
        with pytest.raises(ConfigurationError):
            ModSRAMConfig(rows=17)

    def test_6t_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            ModSRAMConfig(cell=SixTransistorCell)

    def test_tiny_bitwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ModSRAMConfig(bitwidth=2, columns=2)

    def test_odd_bitwidth_iteration_count(self):
        config = ModSRAMConfig(bitwidth=255, columns=256)
        assert config.iterations == 128


class TestMemoryMap:
    @pytest.fixture()
    def memory_map(self) -> MemoryMap:
        return MemoryMap(PAPER_CONFIG)

    def test_operand_rows(self, memory_map):
        assert memory_map.multiplier_row == 0
        assert memory_map.multiplicand_row == 1
        assert memory_map.modulus_row == 2
        assert len(memory_map.operand_region) == 49

    def test_lut_rows_count_matches_paper(self, memory_map):
        """The paper: radix-4 and overflow LUTs take 13 word lines in total."""
        assert len(memory_map.lut_rows) == 13
        assert len(memory_map.overflow_rows) == 8

    def test_all_regions_are_disjoint(self, memory_map):
        regions = (
            set(memory_map.operand_region)
            | {memory_map.sum_row, memory_map.carry_row}
            | set(memory_map.lut_rows)
        )
        assert len(regions) == 49 + 2 + 13
        assert max(regions) == PAPER_CONFIG.rows - 1

    def test_radix4_row_lookup(self, memory_map):
        rows = {memory_map.radix4_row(d) for d in (0, 1, 2, -1, -2)}
        assert len(rows) == 5
        with pytest.raises(MemoryMapError):
            memory_map.radix4_row(3)

    def test_overflow_row_lookup(self, memory_map):
        assert memory_map.overflow_row(0) == memory_map.overflow_rows[0]
        assert memory_map.overflow_row(7) == memory_map.overflow_rows[7]
        with pytest.raises(MemoryMapError):
            memory_map.overflow_row(8)
        with pytest.raises(MemoryMapError):
            memory_map.overflow_row(-1)

    def test_operand_slot_lookup(self, memory_map):
        assert memory_map.operand_row(0) == 0
        assert memory_map.operand_row(48) == 48
        with pytest.raises(MemoryMapError):
            memory_map.operand_row(49)

    def test_utilization_matches_figure6(self, memory_map):
        """Figure 6: 49 operand-capable rows, 2 intermediates, 13 LUT rows."""
        utilization = memory_map.utilization()
        assert utilization.total_rows == 64
        assert utilization.operand_capacity == 49
        assert utilization.operand_rows_used == 3
        assert utilization.intermediate_rows == 2
        assert utilization.lut_rows == 13
        assert utilization.rows_used == 18
        assert utilization.free_rows == 46
        assert utilization.as_dict()["lut_rows"] == 13

    def test_utilization_with_point_addition_operands(self, memory_map):
        utilization = memory_map.utilization(operand_rows_used=12)
        assert utilization.rows_used == 12 + 2 + 13

    def test_utilization_bounds_checked(self, memory_map):
        with pytest.raises(MemoryMapError):
            memory_map.utilization(operand_rows_used=2)
        with pytest.raises(MemoryMapError):
            memory_map.utilization(operand_rows_used=50)

    def test_describe_contains_every_region(self, memory_map):
        description = memory_map.describe()
        assert description["sum_row"] == memory_map.sum_row
        assert len(description["overflow_rows"]) == 8

    def test_minimum_geometry_still_maps(self):
        config = ModSRAMConfig(bitwidth=16, columns=16, rows=18)
        memory_map = MemoryMap(config)
        assert len(memory_map.operand_region) == 3
        assert len(memory_map.lut_rows) == 13
