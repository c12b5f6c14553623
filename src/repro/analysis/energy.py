"""Energy analysis of one modular multiplication (beyond the paper).

The paper reports cycles, frequency and area but no energy figures.  A PIM
library is routinely asked "and how many picojoules per multiplication?", so
this module runs the cycle-accurate model (checked against the oracle and
the closed form), feeds its access statistics into
the calibrated 65 nm energy model and reports the per-multiplication energy
with its mechanism breakdown (precharge, word lines, sensing, write-back,
near-memory registers), plus how the figure scales with operand width.

Because the paper publishes no reference value, the exhibit table in
README.md lists this as a beyond-the-paper analysis; the constants live in
:class:`repro.sram.energy.EnergyModel` and are user-recalibratable.

Registered as experiment ``energy`` in :mod:`repro.experiments`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.ecc.curves_data import CURVE_SPECS
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import checked_multiply
from repro.sram.energy import EnergyBreakdown

__all__ = [
    "EnergyAnalysisResult",
    "EnergyResult",
    "measure_energy_per_multiplication",
    "reproduce_energy",
]

#: Seeds the operands (and, below 256 bits, the modulus) of every width.
_OPERAND_SEED = 1


@dataclass(frozen=True)
class EnergyResult:
    """Energy of one multiplication at one design point."""

    bitwidth: int
    iteration_cycles: int
    breakdown: EnergyBreakdown
    energy_per_multiplication_pj: float
    energy_per_bit_pj: float

    def as_row(self) -> List[object]:
        """One table row for the bitwidth sweep."""
        return [
            self.bitwidth,
            self.iteration_cycles,
            round(self.energy_per_multiplication_pj, 1),
            round(self.energy_per_bit_pj, 2),
            round(self.breakdown.sensing_pj, 1),
            round(self.breakdown.write_pj, 1),
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "bitwidth": self.bitwidth,
            "iteration_cycles": self.iteration_cycles,
            "breakdown": {
                "precharge_pj": self.breakdown.precharge_pj,
                "wordline_pj": self.breakdown.wordline_pj,
                "sensing_pj": self.breakdown.sensing_pj,
                "write_pj": self.breakdown.write_pj,
                "near_memory_pj": self.breakdown.near_memory_pj,
            },
            "energy_per_multiplication_pj": self.energy_per_multiplication_pj,
            "energy_per_bit_pj": self.energy_per_bit_pj,
        }


@dataclass(frozen=True)
class EnergyAnalysisResult:
    """The energy bitwidth sweep as one structured, renderable result."""

    results: Tuple[EnergyResult, ...]

    def render(self) -> str:
        """The sweep as a text table."""
        return render_table(
            (
                "bitwidth",
                "cycles",
                "energy/mul (pJ)",
                "energy/bit (pJ)",
                "sensing (pJ)",
                "write-back (pJ)",
            ),
            [result.as_row() for result in self.results],
            title="Energy per modular multiplication (modelled, beyond the paper)",
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {"results": [result.to_dict() for result in self.results]}


def measure_energy_per_multiplication(bitwidth: int = 256) -> EnergyResult:
    """Run one multiplication and return its modelled energy."""
    config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bitwidth)
    accelerator = ModSRAMAccelerator(config)
    rng = random.Random(_OPERAND_SEED)
    if bitwidth == 256:
        modulus = CURVE_SPECS["bn254"].field_modulus
    else:
        modulus = ((1 << bitwidth) - rng.randrange(3, 1 << max(2, bitwidth // 8))) | 1
    a = rng.randrange(modulus) >> 1
    b = rng.randrange(modulus)
    result = checked_multiply(accelerator, a, b, modulus)

    breakdown = accelerator.energy_report()
    per_multiplication = breakdown.total_pj
    return EnergyResult(
        bitwidth=bitwidth,
        iteration_cycles=result.report.iteration_cycles,
        breakdown=breakdown,
        energy_per_multiplication_pj=per_multiplication,
        energy_per_bit_pj=per_multiplication / bitwidth,
    )


def reproduce_energy(
    bitwidths: Sequence[int] = (64, 128, 256),
) -> EnergyAnalysisResult:
    """Energy sweep across operand widths (what the ``energy`` experiment runs)."""
    return EnergyAnalysisResult(
        results=tuple(
            measure_energy_per_multiplication(bitwidth) for bitwidth in bitwidths
        )
    )
