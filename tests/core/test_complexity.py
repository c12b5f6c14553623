"""Tests for the analytic cycle-complexity models behind Figure 1."""

from __future__ import annotations

import pytest

from repro.core.algorithms import (
    CsaInterleavedMultiplier,
    InterleavedMultiplier,
    R4CSALutMultiplier,
    Radix4InterleavedMultiplier,
)
from repro.core.complexity import (
    COMPLEXITY_MODELS,
    PAPER_FIGURE1_BITWIDTHS,
    complexity_sweep,
    cycles_csa_interleaved,
    cycles_interleaved,
    cycles_mentt_bit_serial,
    cycles_mentt_projected,
    cycles_r4csa_lut,
    cycles_radix4_interleaved,
    r4csa_lut_main_loop,
)
from repro.core.booth import booth_digit_count
from repro.errors import OperandRangeError
from repro.modsram.analytical import AnalyticalCostModel
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.modsram.geometry import MacroGeometry


class TestPaperNumbers:
    def test_mentt_at_256_bits_matches_table3(self):
        assert cycles_mentt_bit_serial(256) == 66049

    def test_r4csa_at_256_bits_matches_table3(self):
        assert cycles_r4csa_lut(256) == 767

    def test_paper_figure_bitwidths(self):
        assert PAPER_FIGURE1_BITWIDTHS == (8, 16, 32, 64, 128, 256)

    def test_our_algorithm_is_linear(self):
        assert cycles_r4csa_lut(512) == 2 * cycles_r4csa_lut(256) + 1

    def test_mentt_is_quadratic(self):
        ratio = cycles_mentt_bit_serial(256) / cycles_mentt_bit_serial(128)
        assert 3.9 < ratio < 4.1

    def test_ordering_between_curves(self):
        """At every plotted bitwidth: ours < projected MeNTT < MeNTT."""
        for bitwidth in PAPER_FIGURE1_BITWIDTHS:
            assert (
                cycles_r4csa_lut(bitwidth)
                < cycles_mentt_projected(bitwidth)
                < cycles_mentt_bit_serial(bitwidth)
            )

    def test_radix4_halves_interleaved_iterations(self):
        assert cycles_radix4_interleaved(256) < cycles_interleaved(256) / 2
        # Radix-4 alone needs fewer cycles than R4CSA-LUT, but each one
        # propagates carries across 256 bits, conservatively 3x the
        # logic-SA cycle; at that cost the paper's design is the fastest.
        assert cycles_r4csa_lut(256) < 3 * cycles_radix4_interleaved(256)

    def test_csa_interleaved_between_interleaved_and_ours(self):
        assert cycles_r4csa_lut(256) < cycles_csa_interleaved(256) <= cycles_interleaved(256)
        # The radix-4 encoder halves the CSA design's iterations.
        assert cycles_csa_interleaved(256) / cycles_r4csa_lut(256) > 1.9


class TestSweep:
    def test_default_sweep_contains_the_figure_curves(self):
        sweep = complexity_sweep()
        assert set(sweep) == {"mentt", "mentt-projected", "r4csa-lut"}
        for series in sweep.values():
            assert len(series) == len(PAPER_FIGURE1_BITWIDTHS)

    def test_sweep_with_explicit_models(self):
        sweep = complexity_sweep(bitwidths=(16, 32), keys=("interleaved", "r4csa-lut"))
        assert sweep["interleaved"] == [96, 192]
        assert sweep["r4csa-lut"] == [47, 95]

    def test_unknown_model_rejected(self):
        with pytest.raises(OperandRangeError):
            complexity_sweep(keys=("nope",))

    def test_models_declare_their_order(self):
        assert COMPLEXITY_MODELS["mentt"].order == "O(n^2)"
        assert COMPLEXITY_MODELS["r4csa-lut"].order == "O(n)"

    def test_every_model_rejects_non_positive_bitwidth(self):
        for model in COMPLEXITY_MODELS.values():
            with pytest.raises(OperandRangeError):
                model.cycles(0)

    def test_model_sweep_method(self):
        model = COMPLEXITY_MODELS["r4csa-lut"]
        assert model.sweep((8, 16)) == [23, 47]


class TestOneLawEach:
    """Each implemented algorithm's ``cycles()`` is its Figure 1 law."""

    @pytest.mark.parametrize(
        "multiplier",
        (
            InterleavedMultiplier(),
            Radix4InterleavedMultiplier(),
            CsaInterleavedMultiplier(),
            R4CSALutMultiplier(),
        ),
        ids=lambda multiplier: multiplier.name,
    )
    def test_class_cycles_are_the_law(self, multiplier):
        law = COMPLEXITY_MODELS[multiplier.name].cycles
        for bitwidth in range(4, 301):
            assert multiplier.cycles(bitwidth) == law(bitwidth), bitwidth

    def test_r4csa_law_is_the_paper_mode_main_loop(self):
        for bitwidth in range(4, 301):
            model = AnalyticalCostModel(PAPER_CONFIG.with_bitwidth(bitwidth))
            assert cycles_r4csa_lut(bitwidth) == model.iteration_cycles(), bitwidth

    @pytest.mark.parametrize("full_range", (False, True))
    def test_one_digit_rule_and_one_main_loop_law(self, full_range):
        """The macro, its geometry and the analytical tier count alike."""
        for bitwidth in range(4, 301):
            config = ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(bitwidth)
            digits = booth_digit_count(bitwidth, full_range)
            assert config.iterations == digits, bitwidth
            assert MacroGeometry.from_config(config).iterations(bitwidth, full_range) == digits
            model = AnalyticalCostModel(config)
            assert model.iterations == digits
            assert config.expected_iteration_cycles == r4csa_lut_main_loop(digits)
            assert model.iteration_cycles() == config.expected_iteration_cycles
        full = ModSRAMConfig(extend_for_full_range=full_range)
        assert full.expected_iteration_cycles == (773 if full_range else 767)


class TestOddWidths:
    """R4CSA-LUT runs ceil(n/2) iterations of six accesses, minus one."""

    @pytest.mark.parametrize(
        "bitwidth,cycles", ((4, 11), (5, 17), (9, 29), (255, 767))
    )
    def test_r4csa_law(self, bitwidth, cycles):
        assert cycles_r4csa_lut(bitwidth) == cycles
        assert R4CSALutMultiplier().cycles(bitwidth) == cycles

    def test_an_odd_width_costs_what_the_next_even_width_does(self):
        for bitwidth in range(5, 301, 2):
            assert cycles_r4csa_lut(bitwidth) == cycles_r4csa_lut(bitwidth + 1)
            assert cycles_r4csa_lut(bitwidth) == cycles_r4csa_lut(bitwidth - 1) + 6

    def test_cycles_command_prints_the_law_at_an_odd_width(self, capsys):
        from repro.cli import main

        assert main(["cycles", "--bitwidth", "255"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(COMPLEXITY_MODELS["r4csa-lut"].label)
        )
        assert row.split("|")[-1].strip() == "767"
