"""Tests for the beyond-the-paper energy analysis."""

from __future__ import annotations

import pytest

from repro.analysis.energy import measure_energy_per_multiplication, reproduce_energy


class TestEnergyPerMultiplication:
    def test_small_width_measurement(self):
        result = measure_energy_per_multiplication(bitwidth=32)
        assert result.iteration_cycles == 95
        assert result.energy_per_multiplication_pj > 0
        assert result.energy_per_bit_pj == pytest.approx(
            result.energy_per_multiplication_pj / 32
        )

    def test_breakdown_sums_to_total(self):
        result = measure_energy_per_multiplication(bitwidth=32)
        data = result.breakdown.as_dict()
        assert data["total_pj"] == pytest.approx(
            data["precharge_pj"]
            + data["wordline_pj"]
            + data["sensing_pj"]
            + data["write_pj"]
            + data["near_memory_pj"]
        )

    def test_energy_grows_with_bitwidth(self):
        results = [
            measure_energy_per_multiplication(bitwidth=bitwidth)
            for bitwidth in (32, 64, 128, 256)
        ]
        energies = [result.energy_per_multiplication_pj for result in results]
        assert energies[1] > 1.5 * energies[0]
        assert energies == sorted(energies)
        paper = results[-1]
        assert paper.iteration_cycles == 767
        # The paper point costs nanojoules per multiplication, and sensing
        # (three SAs per column per access) outweighs the write-back.
        assert 0.3e3 < paper.energy_per_multiplication_pj < 5e3
        assert paper.breakdown.sensing_pj > paper.breakdown.near_memory_pj

    def test_sweep_table(self):
        analysis = reproduce_energy(bitwidths=(32, 64))
        results = analysis.results
        assert len(results) == 2
        assert "energy/mul" in analysis.render()
        assert results[0].bitwidth == 32 and results[1].bitwidth == 64
