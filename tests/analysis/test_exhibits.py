"""Tests for the per-exhibit reproduction modules (tables, figures, report)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    DESIGN_ORDER,
    build_report,
    format_value,
    render_table,
    reproduce_figure1,
    reproduce_figure5,
    reproduce_figure6,
    reproduce_figure7,
    reproduce_headline_claims,
    reproduce_table3,
    reproduce_tables,
)
from repro.baselines import get_design
from repro.core.complexity import PAPER_FIGURE1_BITWIDTHS
from repro.modsram.config import build_design_config


class TestRendering:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(1234567) == "1,234,567"
        assert format_value(0.25) == "0.25"
        assert format_value(1.5e9) == "1.500e+09"
        assert format_value("text") == "text"
        assert format_value(0.0) == "0"

    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6


class TestTable1:
    def test_default_reproduction(self):
        result = reproduce_tables()
        assert len(result.encoder_rows) == 8
        assert len(result.radix4_rows) == 5
        assert len(result.overflow_rows) == 8
        assert result.encoder_rows[4] == (1, 0, 0, -2)
        assert "Table 1a" in result.render()
        assert "Table 2" in result.render()

    def test_lut_values_are_reduced(self):
        result = reproduce_tables(multiplicand=12345, modulus=65521)
        for _, value in result.radix4_rows + result.overflow_rows:
            assert 0 <= value < 65521


class TestFigure1:
    def test_measured_cycles_match_the_formula_at_small_widths(self):
        result = reproduce_figure1(bitwidths=(8, 16, 32))
        assert result.measured_modsram == [23, 47, 95]

    def test_speedup_over_mentt_grows_with_bitwidth(self):
        result = reproduce_figure1()
        series = result.analytic_series
        speedups = [m / o for m, o in zip(series["mentt"], series["r4csa-lut"])]
        assert speedups == sorted(speedups)
        assert speedups[-1] > 80  # 66049 / 767 ≈ 86
        series = result.analytic_series
        assert series["mentt"][-1] == 66049
        assert series["mentt-projected"][-1] == 32896
        assert series["r4csa-lut"][-1] == 767
        assert series["mentt"][-1] / result.measured_modsram[-1] > 86

    @pytest.mark.parametrize(
        "bitwidths",
        (PAPER_FIGURE1_BITWIDTHS, (5,), (9,), (255,)),
        ids=lambda widths: "-".join(map(str, widths)),
    )
    def test_every_measured_width_lands_on_the_law(self, bitwidths):
        """The figure's widths, then Figure 3's 5 bits, 9 and 255.

        The odd widths take ceil(n/2) digits.
        """
        result = reproduce_figure1(bitwidths=bitwidths)
        assert result.measured_modsram == result.analytic_series["r4csa-lut"]

    def test_a_width_reads_the_same_whatever_else_is_requested(self):
        alone = reproduce_figure1(bitwidths=(255,)).measured_modsram
        among = reproduce_figure1(bitwidths=(5, 9, 255)).measured_modsram
        assert among == [17, 29, 767]
        assert alone == [767]

    def test_an_extra_overflow_fold_costs_three_cycles(self):
        """Seed 8's 256-bit operands need one extra overflow fold.

        The measured column is the cycle tier's main loop, extra folds
        included, so it reads three cycles over the fold-free law.
        """
        result = reproduce_figure1(bitwidths=(256,), seed=8)
        assert result.analytic_series["r4csa-lut"] == [767]
        assert result.measured_modsram == [767 + 3]

    def test_render_contains_every_bitwidth(self):
        text = reproduce_figure1().render()
        for bitwidth in PAPER_FIGURE1_BITWIDTHS:
            assert str(bitwidth) in text

    def test_rows_shape(self):
        result = reproduce_figure1()
        rows = result.rows()
        assert len(rows) == len(PAPER_FIGURE1_BITWIDTHS)
        assert len(rows[0]) == 1 + len(result.analytic_series) + 1


class TestFigure5:
    def test_total_and_breakdown_close_to_paper(self):
        result = reproduce_figure5()
        assert abs(result.total_error_percent) < 5
        for component, share in result.breakdown.percentages.items():
            assert abs(share - result.paper_breakdown_percent[component]) < 2.0
        assert abs(result.overhead_percent - result.paper_overhead_percent) < 4.0

    def test_render_mentions_overhead(self):
        assert "overhead" in reproduce_figure5().render()

    def test_rows_have_four_components(self):
        assert len(reproduce_figure5().rows()) == 4

    def test_areas_are_rounded_once(self):
        """0.0014506 mm^2 prints as 0.001, not 0.0015 rounded again to 0.002."""
        config = build_design_config(bitwidth=128, rows=128, technology_nm=45)
        result = reproduce_figure5(config)
        area = result.breakdown.near_memory_circuit_mm2
        assert 0.00145 < area < 0.0015
        near_memory = next(
            line for line in result.render().splitlines()
            if line.startswith("near memory circuit")
        )
        assert near_memory.split("|")[1].strip() == "0.001"


class TestFigure6:
    def test_row_requirements(self):
        result = reproduce_figure6()
        assert result.rows_by_design["mentt"] == 1282
        assert result.rows_by_design["bpntt"] == 6
        assert result.rows_by_design["modsram"] == 18
        assert result.modsram_utilization.lut_rows == 13
        assert result.modsram_utilization.intermediate_rows == 2
        assert result.modsram_utilization.free_rows == 46
        assert result.modsram_array_rows == 64
        # §5.2: a point addition's ~12 coordinates and temporaries fit.
        assert result.modsram_utilization.operand_capacity >= 12 + 3

    def test_mentt_does_not_fit_the_array_modsram_uses(self):
        """The paper's point: 1282 rows cannot fit a 64-row bank."""
        result = reproduce_figure6()
        assert result.rows_by_design["mentt"] > result.modsram_array_rows
        assert result.rows_by_design["modsram"] <= result.modsram_array_rows

    def test_render(self):
        text = reproduce_figure6().render()
        assert "MeNTT" in text and "ModSRAM" in text and "LUT rows" in text


class TestFigure7:
    def test_operating_point_and_ordering(self):
        result = reproduce_figure7()
        assert result.vector_size == 2**15
        assert result.bitwidth == 256
        assert result.ntt.modular_multiplications == 245760
        assert 1e7 < result.msm.modular_multiplications < 1e8
        assert (
            result.msm.modular_multiplications
            > 100 * result.ntt.modular_multiplications
        )
        ntt = result.ntt.as_dict()
        msm = result.msm.as_dict()
        # The qualitative shape of Figure 7: MSM >> NTT in every category,
        # and register writes dominate memory accesses dominate modmuls.
        for key in ntt:
            assert msm[key] > ntt[key]
        for counts in (ntt, msm):
            assert (
                counts["register_writes"]
                > counts["memory_access"]
                > counts["modular_multiplication"]
            )

    def test_rows_cover_both_kernels(self):
        rows = reproduce_figure7().rows()
        assert len(rows) == 6
        assert {row[0] for row in rows} == {"NTT", "MSM"}

    def test_render(self):
        assert "2^15" in reproduce_figure7().render()


@pytest.fixture(scope="module")
def table3_at():
    """``reproduce_table3`` per bitwidth, run once per module."""
    results = {}

    def reproduce(bitwidth):
        if bitwidth not in results:
            results[bitwidth] = reproduce_table3(bitwidth)
        return results[bitwidth]

    return reproduce


@pytest.mark.parametrize("bitwidth", (64, 256))
@pytest.mark.parametrize("key", DESIGN_ORDER)
def test_each_table3_row_reads_its_design(table3_at, key, bitwidth):
    """Table 3 reads each design's cycle model and fields from its spec."""
    row = table3_at(bitwidth).rows_by_design[key]
    design = get_design(key)
    assert row["design"] == design.label
    assert row["cycles"] == design.cycles(bitwidth)


class TestTable3:
    def test_design_order_matches_paper_columns(self):
        assert DESIGN_ORDER[0] == "modsram"
        assert len(DESIGN_ORDER) == 6

    def test_cycle_columns(self):
        result = reproduce_table3()
        assert result.measured_modsram_cycles == 767
        assert result.rows_by_design["modsram"]["cycles"] == 767
        assert result.rows_by_design["mentt"]["cycles"] == 66049
        assert result.rows_by_design["bpntt"]["cycles"] == 1465
        assert result.rows_by_design["rm-ntt"]["cycles"] is None
        assert result.rows_by_design["modsram"]["area_mm2"] < 0.06
        assert result.rows_by_design["mentt"]["area_mm2"] == 0.36

    def test_cycle_reductions(self):
        result = reproduce_table3()
        assert result.cycle_reduction_vs("mentt") > 98.0
        assert 45.0 < result.cycle_reduction_vs("bpntt") < 50.0
        assert 50.0 < result.cycle_reduction_vs("bpntt", include_transform=True) < 55.0
        # At each design's own clock: two orders of magnitude below MeNTT.
        rows = result.rows_by_design
        assert (
            rows["modsram"]["cycles"] / rows["modsram"]["frequency_mhz"]
            < rows["mentt"]["cycles"] / rows["mentt"]["frequency_mhz"] / 100
        )

    def test_reduction_against_design_without_cycles_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table3().cycle_reduction_vs("x-poly")

    def test_render_contains_all_designs(self):
        text = reproduce_table3().render()
        for label in ("MeNTT", "BP-NTT", "RM-NTT", "CryptoPIM", "X-Poly", "This work"):
            assert label in text

    def test_rows_shape(self):
        rows = reproduce_table3().rows()
        assert len(rows) == 6
        assert all(len(row) == 10 for row in rows)


class TestHeadlineAndReport:
    def test_headline_claims_hold(self):
        result = reproduce_headline_claims()
        assert result.all_hold()
        assert len(result.claims) == 7
        assert "767" in result.render()

    def test_quick_report_contains_every_exhibit(self):
        report = build_report(quick=True)
        for marker in ("Table 1a", "Figure 1", "Figure 5", "Figure 6", "Figure 7", "Table 3", "Headline"):
            assert marker in report
