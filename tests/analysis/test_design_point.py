"""The design-point exhibit: one checked cycle-tier multiplication, priced."""

from __future__ import annotations

import pytest

from repro.analysis.design_point import reproduce_design_point
from repro.cli import main
from repro.modsram import fidelity


class TestDesignPointEnergy:
    def test_small_width_measurement(self):
        result = reproduce_design_point(bitwidth=32)
        assert result.iteration_cycles == 95
        assert result.energy_pj > 0

    def test_breakdown_sums_to_total(self):
        payload = reproduce_design_point(bitwidth=32).to_dict()
        breakdown = payload["breakdown"]
        assert set(breakdown) == {
            "precharge_pj", "wordline_pj", "sensing_pj", "write_pj",
            "near_memory_pj",
        }
        assert payload["energy_pj"] == pytest.approx(sum(breakdown.values()))

    def test_energy_grows_with_bitwidth(self):
        results = [
            reproduce_design_point(bitwidth=bitwidth)
            for bitwidth in (32, 64, 128, 256)
        ]
        energies = [result.energy_pj for result in results]
        assert energies[1] > 1.5 * energies[0]
        assert energies == sorted(energies)
        paper = results[-1]
        assert paper.iteration_cycles == 767
        # The paper point costs nanojoules per multiplication, and sensing
        # (three SAs per column per access) outweighs the near-memory
        # registers.
        assert 0.3e3 < paper.energy_pj < 5e3
        assert paper.breakdown.sensing_pj > paper.breakdown.near_memory_pj


class TestNarrowWidths:
    @pytest.mark.parametrize("bitwidth", range(4, 9))
    def test_the_probe_multiplies_under_a_full_width_modulus(
        self, monkeypatch, capsys, bitwidth
    ):
        moduli = []
        checked_multiply = fidelity.checked_multiply

        def recording(simulator, a, b, modulus):
            moduli.append(modulus)
            return checked_multiply(simulator, a, b, modulus)

        monkeypatch.setattr(fidelity, "checked_multiply", recording)
        argv = ["experiment", "run", "design-point", "--set", f"bitwidth={bitwidth}"]
        assert main(argv) == 0
        assert "ModSRAM design point" in capsys.readouterr().out
        assert [modulus.bit_length() for modulus in moduli] == [bitwidth]
