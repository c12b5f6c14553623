"""Figure 1: cycles per modular multiplication versus bitwidth.

Regenerates the three curves of Figure 1 (MeNTT, MeNTT projected, this work)
over the paper's bitwidth sweep and checks the measured (cycle-accurate)
series against the analytic law.  The benchmark timing itself measures the
cycle-accurate simulator, i.e. how long reproducing one sweep takes.
"""

from __future__ import annotations

from repro.analysis import measure_modsram_cycles, reproduce_figure1
from repro.core.complexity import cycles_mentt_bit_serial, cycles_r4csa_lut


def test_figure1_analytic_sweep(benchmark):
    """The closed-form and measured series over the paper's bitwidths (8..256)."""
    result = benchmark(reproduce_figure1)
    assert result.analytic_series["mentt"][-1] == 66049
    assert result.analytic_series["r4csa-lut"][-1] == 767
    assert result.analytic_series["mentt-projected"][-1] == 32896
    assert result.measured_modsram == result.analytic_series["r4csa-lut"]
    print()
    print(result.render())
    print("speedup over MeNTT per bitwidth:",
          [round(s, 1) for s in result.speedup_over_mentt()])


def test_figure1_measured_small_widths(benchmark):
    """Cycle-accurate measurement of the 8/16/32/64-bit points."""
    def sweep():
        return [measure_modsram_cycles(bitwidth) for bitwidth in (8, 16, 32, 64)]

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert measured == [cycles_r4csa_lut(b) for b in (8, 16, 32, 64)]


def test_figure1_measured_256_bit_point(benchmark):
    """Cycle-accurate measurement of the paper's 256-bit operating point."""
    measured = benchmark.pedantic(measure_modsram_cycles, args=(256,), rounds=1, iterations=1)
    assert measured == 767
    assert cycles_mentt_bit_serial(256) / measured > 86
