"""Figure 5: area breakdown of the ModSRAM macro.

The paper reports a 0.053 mm² macro (65 nm, 64 × 256) split 67 % SRAM
array / 20 % in-memory circuit / 11 % near-memory circuit / 2 % decoders,
and a 32 % area overhead over a plain SRAM macro.  The reproduction computes
the same breakdown from the parametric area model and reports the deltas
against the published numbers.

Registered as experiment ``figure5`` in :mod:`repro.experiments` (with
``rows`` / ``bitwidth`` / ``technology_nm`` as sweep axes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.modsram.area import (
    PAPER_AREA_MM2,
    PAPER_AREA_OVERHEAD_PERCENT,
    PAPER_BREAKDOWN_PERCENT,
    AreaBreakdown,
    AreaModel,
)
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.tables import render_table

__all__ = ["Figure5Result", "reproduce_figure5"]


@dataclass(frozen=True)
class Figure5Result:
    """Modelled breakdown alongside the paper's published numbers."""

    breakdown: AreaBreakdown
    overhead_percent: float
    paper_total_mm2: float
    paper_breakdown_percent: Dict[str, float]
    paper_overhead_percent: float

    @property
    def total_mm2(self) -> float:
        """Modelled total macro area."""
        return self.breakdown.total_mm2

    @property
    def total_error_percent(self) -> float:
        """Relative deviation of the modelled total from the paper's total."""
        return 100.0 * (self.total_mm2 - self.paper_total_mm2) / self.paper_total_mm2

    def rows(self) -> List[List[object]]:
        """One row per component: modelled share vs published share."""
        modelled = self.breakdown.percentages
        table = []
        for component in ("sram_array", "in_memory_circuit", "near_memory_circuit", "decoder"):
            table.append(
                [
                    component.replace("_", " "),
                    self.breakdown.as_dict()[f"{component}_mm2"],
                    round(modelled[component], 1),
                    self.paper_breakdown_percent[component],
                ]
            )
        return table

    def render(self) -> str:
        """The figure's data as a text table plus the summary lines."""
        table = render_table(
            ("component", "area (mm^2)", "model share (%)", "paper share (%)"),
            self.rows(),
            title="Figure 5: ModSRAM area breakdown",
        )
        summary = (
            f"total: {self.total_mm2:.4f} mm^2 (paper {self.paper_total_mm2} mm^2, "
            f"{self.total_error_percent:+.1f}%)\n"
            f"PIM overhead over plain SRAM: {self.overhead_percent:.1f}% "
            f"(paper {self.paper_overhead_percent}%)"
        )
        return f"{table}\n{summary}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "breakdown": {
                "sram_array_mm2": self.breakdown.sram_array_mm2,
                "in_memory_circuit_mm2": self.breakdown.in_memory_circuit_mm2,
                "near_memory_circuit_mm2": self.breakdown.near_memory_circuit_mm2,
                "decoder_mm2": self.breakdown.decoder_mm2,
            },
            "overhead_percent": self.overhead_percent,
            "paper_total_mm2": self.paper_total_mm2,
            "paper_breakdown_percent": dict(self.paper_breakdown_percent),
            "paper_overhead_percent": self.paper_overhead_percent,
        }


def reproduce_figure5(config: Optional[ModSRAMConfig] = None) -> Figure5Result:
    """Reproduce the area breakdown for a configuration (default: the paper's)."""
    model = AreaModel(config or PAPER_CONFIG)
    return Figure5Result(
        breakdown=model.breakdown(),
        overhead_percent=model.overhead_percent(),
        paper_total_mm2=PAPER_AREA_MM2,
        paper_breakdown_percent=dict(PAPER_BREAKDOWN_PERCENT),
        paper_overhead_percent=PAPER_AREA_OVERHEAD_PERCENT,
    )
