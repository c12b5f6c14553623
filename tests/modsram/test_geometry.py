"""MacroGeometry: validation, paper-constant identity, banked algebra."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.modsram.analytical import AnalyticalCostModel, AnalyticalModSRAM
from repro.modsram.chip import Chip
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.modsram.geometry import SUPPORTED_RADICES, MacroGeometry


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,key",
        (
            ({"rows": 0}, "rows"),
            ({"rows": 17}, "rows"),  # below the radix-4 memory-map floor
            ({"columns": 2}, "columns"),
            ({"banks": 0}, "banks"),
            ({"rows": 64, "banks": 7}, "banks"),  # does not divide rows
            ({"radix": 3}, "radix"),
            ({"radix": 32}, "radix"),
            ({"overflow_rows": 1}, "overflow_rows"),
            ({"rows": True}, "rows"),  # bools are not integers here
            ({"columns": 25.5}, "columns"),
        ),
    )
    def test_bad_fields_raise_naming_the_field(self, kwargs, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'|{key}"):
            MacroGeometry(**kwargs)

    def test_every_supported_radix_constructs(self):
        for radix in SUPPORTED_RADICES:
            geometry = MacroGeometry(rows=64, radix=radix)
            assert geometry.radix_rows == radix + 1
            assert geometry.computed_radix_entries == radix - 1

    def test_minimum_rows_scale_with_the_luts(self):
        assert MacroGeometry().minimum_rows == 18
        assert MacroGeometry(radix=16, rows=40).minimum_rows == 30

    def test_apply_to_rejects_narrow_arrays(self):
        geometry = MacroGeometry(rows=64, columns=64)
        with pytest.raises(ConfigurationError, match="'columns'"):
            geometry.apply_to(ModSRAMConfig())  # 256-bit operands

    def test_as_dict_round_trips(self):
        geometry = MacroGeometry(rows=32, columns=128, banks=2)
        assert MacroGeometry(**geometry.as_dict()) == geometry


class TestPaperConstantIdentity:
    """The default geometry reproduces every pre-refactor closed form."""

    def test_cost_model_numbers_are_unchanged(self):
        model = AnalyticalCostModel(PAPER_CONFIG)
        assert model.load_cycles() == 6
        assert model.lut_fill_cycles() == 33
        assert model.lut_fill_cycles(reused=True) == 0
        assert model.radix4_refill_cycles() == 11
        assert model.iteration_cycles() == 767
        assert model.total_cycles() == 809
        assert model.report().iteration_cycles == 767

    def test_explicit_default_geometry_is_identical(self):
        implicit = AnalyticalCostModel(PAPER_CONFIG)
        explicit = AnalyticalCostModel(
            PAPER_CONFIG, MacroGeometry.from_config(PAPER_CONFIG)
        )
        assert implicit.report().as_dict() == explicit.report().as_dict()
        assert (
            implicit.array_stats().as_dict() == explicit.array_stats().as_dict()
        )

    @pytest.mark.parametrize("bits", (16, 33, 64, 128, 256))
    @pytest.mark.parametrize("extend", (False, True))
    def test_radix4_iterations_match_the_config_property(self, bits, extend):
        config = ModSRAMConfig(extend_for_full_range=extend).with_bitwidth(bits)
        geometry = MacroGeometry.from_config(config)
        assert geometry.iterations(bits, extend) == config.iterations


class TestBankedAlgebra:
    def test_banking_shortens_loads_and_fills_only(self):
        flat = AnalyticalCostModel(PAPER_CONFIG)
        banked = AnalyticalCostModel(
            PAPER_CONFIG, MacroGeometry(rows=64, columns=256, banks=4)
        )
        assert banked.load_cycles() == 3  # ceil(5/4) + 1
        assert banked.lut_fill_cycles() == 24  # 20 compute + ceil(13/4)
        assert banked.iteration_cycles() == flat.iteration_cycles()
        assert banked.finalize_cycles() == flat.finalize_cycles()
        assert banked.total_cycles() < flat.total_cycles()

    def test_banking_never_changes_the_access_profile(self):
        flat = AnalyticalCostModel(PAPER_CONFIG)
        banked = AnalyticalCostModel(
            PAPER_CONFIG, MacroGeometry(rows=64, columns=256, banks=8)
        )
        assert flat.array_stats().as_dict() == banked.array_stats().as_dict()

    def test_write_burst_cycles(self):
        geometry = MacroGeometry(rows=64, banks=4)
        assert geometry.write_burst_cycles(0) == 0
        assert geometry.write_burst_cycles(1) == 1
        assert geometry.write_burst_cycles(4) == 1
        assert geometry.write_burst_cycles(5) == 2


class TestHigherRadixAlgebra:
    def test_radix8_shortens_the_loop_and_grows_the_lut(self):
        radix4 = AnalyticalCostModel(PAPER_CONFIG)
        radix8 = AnalyticalCostModel(
            PAPER_CONFIG, MacroGeometry(rows=64, columns=256, radix=8)
        )
        assert radix8.iterations < radix4.iterations
        assert radix8.lut_fill_cycles() > radix4.lut_fill_cycles()

    def test_executable_tier_rejects_non_radix4_geometry(self):
        with pytest.raises(ConfigurationError, match="radix"):
            AnalyticalModSRAM(
                PAPER_CONFIG, MacroGeometry(rows=64, columns=256, radix=8)
            )

    @pytest.mark.parametrize(
        "field,value", [("banks", 2), ("overflow_rows", 4), ("overflow_rows", 16)]
    )
    def test_executable_tiers_reject_geometry_their_loop_cannot_run(
        self, field, value
    ):
        config = ModSRAMConfig().with_bitwidth(16)
        geometry = MacroGeometry(rows=64, columns=16, **{field: value})
        with pytest.raises(ConfigurationError, match=f"'{field}'"):
            AnalyticalModSRAM(config, geometry)
        with pytest.raises(ConfigurationError, match=f"'{field}'"):
            Chip(2, config, geometry)
        # The closed form still prices it.
        assert AnalyticalCostModel(config, geometry).total_cycles() > 0

    def test_cost_model_rejects_narrow_geometry(self):
        with pytest.raises(ConfigurationError, match="'columns'"):
            AnalyticalCostModel(
                ModSRAMConfig(), MacroGeometry(rows=64, columns=64)
            )
