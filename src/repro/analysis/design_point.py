"""One ModSRAM design point: cycles, latency, area and energy together.

The paper evaluates a single operating point (64 x 256 array, 65 nm,
256-bit operands).  Design-space exploration asks the same four questions —
how many cycles, how fast, how big, how many picojoules — at *other*
points, so this module bundles them into one structured, sweepable result.
Cycles, latency and energy come from one checked cycle-accurate run at the
point (:func:`~repro.modsram.fidelity.probe_multiply`, the seeded probe the
DSE shares); the area from the parametric area model.

The energy is reported with its mechanism breakdown (precharge, word
lines, sensing, write-back, near-memory registers).  The paper publishes no
energy figure, so this is a beyond-the-paper analysis; the constants live
in :class:`repro.sram.energy.EnergyModel` and are user-recalibratable.

Registered as experiment ``design-point`` in :mod:`repro.experiments`;
``repro experiment sweep design-point --axis bitwidth=64,128,256 --render``
sweeps it from the shell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.area import AreaModel
from repro.modsram.config import build_design_config
from repro.modsram.fidelity import probe_multiply
from repro.modsram.geometry import MacroGeometry
from repro.sram.energy import EnergyBreakdown
from repro.tables import render_table

__all__ = ["DesignPointResult", "reproduce_design_point"]


@dataclass(frozen=True)
class DesignPointResult:
    """Cycles / latency / area / energy of one ModSRAM configuration."""

    bitwidth: int
    rows: int
    technology_nm: int
    iteration_cycles: int
    frequency_mhz: float
    latency_us: float
    area_mm2: float
    #: Modelled energy of the measured multiplication, per mechanism.
    breakdown: EnergyBreakdown
    #: Array width in bit lines (defaults to the operand width, as in the
    #: paper's macro sizing).
    columns: int = 0
    #: Independently addressable sub-arrays (1 = the paper's design).
    banks: int = 1

    @property
    def energy_pj(self) -> float:
        """Modelled energy of the measured multiplication."""
        return self.breakdown.total_pj

    def as_row(self) -> List[object]:
        """One table row for sweeps over bitwidth or technology."""
        return [
            self.bitwidth,
            f"{self.rows}x{self.columns or self.bitwidth}"
            + (f"/{self.banks}b" if self.banks != 1 else ""),
            f"{self.technology_nm} nm",
            self.iteration_cycles,
            round(self.frequency_mhz, 0),
            round(self.latency_us, 2),
            round(self.area_mm2, 4),
            round(self.energy_pj, 1),
        ]

    def render(self) -> str:
        """The design point as a one-row text table plus its energy split."""
        table = render_table(
            (
                "bitwidth",
                "geometry",
                "tech",
                "cycles",
                "freq (MHz)",
                "latency (us)",
                "area (mm^2)",
                "energy/op (pJ)",
            ),
            [self.as_row()],
            title="ModSRAM design point (measured)",
        )
        energy = self.breakdown
        return table + (
            f"\nenergy/op by mechanism (pJ): precharge {energy.precharge_pj:.1f}, "
            f"word lines {energy.wordline_pj:.1f}, sensing {energy.sensing_pj:.1f}, "
            f"write-back {energy.write_pj:.1f}, "
            f"near-memory registers {energy.near_memory_pj:.1f}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "bitwidth": self.bitwidth,
            "rows": self.rows,
            "columns": self.columns,
            "banks": self.banks,
            "technology_nm": self.technology_nm,
            "iteration_cycles": self.iteration_cycles,
            "frequency_mhz": self.frequency_mhz,
            "latency_us": self.latency_us,
            "area_mm2": self.area_mm2,
            "energy_pj": self.energy_pj,
            "breakdown": asdict(self.breakdown),
        }


def reproduce_design_point(
    bitwidth: int = 256,
    rows: Optional[int] = None,
    technology_nm: int = 65,
    seed: int = 5,
    columns: Optional[int] = None,
    banks: int = 1,
) -> DesignPointResult:
    """Evaluate one ModSRAM design point.

    One seeded multiplication under a full-width modulus runs through the
    cycle-accurate model, checked against the oracle and the closed form
    (:func:`~repro.modsram.fidelity.probe_multiply`), and its cycles,
    latency and energy are reported.  ``columns``/``banks`` extend the
    sweepable geometry (:class:`~repro.modsram.geometry.MacroGeometry`);
    banking overlaps operand/LUT writes and leaves the main loop — the
    quantity reported here — untouched, so the measured run stays valid at
    any bank count.
    """
    config = build_design_config(
        bitwidth, rows=rows, technology_nm=technology_nm, columns=columns
    )
    geometry = MacroGeometry(
        rows=config.rows, columns=config.columns, banks=banks
    )
    accelerator = ModSRAMAccelerator(config)
    report = probe_multiply(accelerator, seed).report
    return DesignPointResult(
        bitwidth=bitwidth,
        rows=config.rows,
        columns=geometry.columns,
        banks=geometry.banks,
        technology_nm=technology_nm,
        iteration_cycles=report.iteration_cycles,
        frequency_mhz=config.frequency_mhz,
        latency_us=report.latency_us,
        area_mm2=AreaModel(config).total_mm2(),
        breakdown=accelerator.energy_report(),
    )
