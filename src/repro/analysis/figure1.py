"""Figure 1: algorithm complexity and performance comparison.

The paper's Figure 1 plots the cycles of one modular multiplication against
the operand bitwidth (8–256 bits) for the MeNTT bit-serial algorithm, a
projected variant of it, and this work.  The reproduction produces two
things for every bitwidth:

* the *analytic* cycle count from the closed-form laws
  (:mod:`repro.core.complexity`), and
* the *measured* cycle count obtained by running the cycle-accurate
  ModSRAM model on random operands of that width, each run checked
  against the oracle and the closed form
  (:func:`~repro.modsram.fidelity.checked_multiply`),

so the O(n) claim is backed by the simulator rather than only by the
formula.

Registered as experiment ``figure1`` in :mod:`repro.experiments`, which
adds sweeps and JSON output to :func:`reproduce_figure1`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.complexity import (
    COMPLEXITY_MODELS,
    PAPER_FIGURE1_BITWIDTHS,
    complexity_sweep,
)
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import checked_multiply
from repro.tables import render_table

__all__ = ["Figure1Result", "measure_modsram_cycles", "reproduce_figure1"]


def _random_modulus(bitwidth: int, rng: random.Random) -> int:
    """An odd modulus with the exact requested bit length."""
    modulus = (1 << (bitwidth - 1)) | rng.getrandbits(bitwidth - 1) | 1
    return modulus


def measure_modsram_cycles(
    bitwidth: int, rng: Optional[random.Random] = None
) -> int:
    """Main-loop cycles measured by running the accelerator at ``bitwidth``.

    Uses the paper's schedule (``n/2`` iterations), i.e. the multiplier's
    top bit is kept clear, matching how the paper scales its comparison.
    """
    rng = rng or random.Random(bitwidth)
    config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bitwidth)
    modulus = _random_modulus(bitwidth, rng)
    a = rng.randrange(modulus) & ((1 << (bitwidth - 1)) - 1)
    b = rng.randrange(modulus)
    result = checked_multiply(ModSRAMAccelerator(config), a, b, modulus)
    return result.report.iteration_cycles


@dataclass(frozen=True)
class Figure1Result:
    """Cycles-versus-bitwidth series for every curve of Figure 1."""

    bitwidths: Tuple[int, ...]
    analytic_series: Dict[str, List[int]]
    measured_modsram: List[int]

    def rows(self) -> List[List[object]]:
        """Table rows: one per bitwidth, one column per series."""
        table = []
        for index, bitwidth in enumerate(self.bitwidths):
            row: List[object] = [bitwidth]
            for key in sorted(self.analytic_series):
                row.append(self.analytic_series[key][index])
            row.append(self.measured_modsram[index])
            table.append(row)
        return table

    def render(self) -> str:
        """The figure's data as a text table."""
        headers = ["bitwidth"] + [
            COMPLEXITY_MODELS[key].label for key in sorted(self.analytic_series)
        ] + ["ModSRAM (measured)"]
        return render_table(
            headers,
            self.rows(),
            title="Figure 1: cycles per modular multiplication vs bitwidth",
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "bitwidths": list(self.bitwidths),
            "analytic_series": {
                key: list(series) for key, series in self.analytic_series.items()
            },
            "measured_modsram": list(self.measured_modsram),
        }


def reproduce_figure1(
    bitwidths: Sequence[int] = PAPER_FIGURE1_BITWIDTHS,
    seed: int = 2024,
) -> Figure1Result:
    """Reproduce Figure 1 over the requested bitwidths.

    Each width draws its operands from its own stream, seeded by ``seed``
    and the width, so a width's measured count does not depend on which
    other widths were requested.
    """
    return Figure1Result(
        bitwidths=tuple(bitwidths),
        analytic_series=complexity_sweep(bitwidths),
        measured_modsram=[
            measure_modsram_cycles(bitwidth, random.Random(f"{seed}:{bitwidth}"))
            for bitwidth in bitwidths
        ],
    )
