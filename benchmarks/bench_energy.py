"""Energy per modular multiplication (beyond-the-paper analysis).

The paper does not report energy; this bench produces the modelled
per-multiplication energy of the default 65 nm macro and its scaling with
operand width, using the access counts of real cycle-accurate runs.
"""

from __future__ import annotations

from repro.analysis.energy import measure_energy_per_multiplication, reproduce_energy


def test_energy_sweep(benchmark):
    """Energy/multiplication across operand widths (cycle-accurate runs)."""
    analysis = benchmark.pedantic(
        reproduce_energy, kwargs={"bitwidths": (64, 128, 256)},
        rounds=1, iterations=1,
    )
    energies = [result.energy_per_multiplication_pj for result in analysis.results]
    assert energies == sorted(energies)
    # The 256-bit figure lands in the nanojoule-per-multiplication regime.
    assert 0.3e3 < energies[-1] < 5e3
    print()
    print(analysis.render())


def test_energy_single_256_bit(benchmark):
    """One 256-bit multiplication's energy on the paper configuration."""
    result = benchmark.pedantic(
        measure_energy_per_multiplication, kwargs={"bitwidth": 256},
        rounds=1, iterations=1,
    )
    assert result.iteration_cycles == 767
    # Sensing (three SAs per column per access) dominates write-back energy.
    assert result.breakdown.sensing_pj > result.breakdown.near_memory_pj
