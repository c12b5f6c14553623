"""Figure 6: data organisation / memory utilisation comparison.

Figure 6 contrasts how three SRAM PIM designs lay out one 256-bit modular
multiplication: MeNTT stores every operand bit-serially along bitlines (the
row requirement explodes with bitwidth), BP-NTT holds a small bit-parallel
working set plus near-memory routing/scratchpad, and ModSRAM keeps three
operand rows, two intermediate rows and thirteen reusable LUT rows inside a
64-row array.  The reproduction computes each design's row requirement at a
given bitwidth from the row models and reports ModSRAM's region breakdown.

Registered as experiment ``figure6`` in :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines import get_design
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.modsram.memory_map import MemoryMap, MemoryUtilization
from repro.tables import render_table

__all__ = ["Figure6Result", "reproduce_figure6"]


@dataclass(frozen=True)
class Figure6Result:
    """Row requirements per design plus ModSRAM's region breakdown."""

    bitwidth: int
    rows_by_design: Dict[str, Optional[int]]
    modsram_utilization: MemoryUtilization
    modsram_array_rows: int

    def rows(self) -> List[List[object]]:
        """One table row per design."""
        table = []
        for key in ("mentt", "bpntt", "modsram"):
            design = get_design(key)
            table.append(
                [
                    design.label,
                    design.cell_type,
                    self.rows_by_design[key],
                    design.notes.split(";")[0] if design.notes else "",
                ]
            )
        return table

    def render(self) -> str:
        """The figure's data as text."""
        util = self.modsram_utilization
        table = render_table(
            ("design", "cell", f"rows needed @ {self.bitwidth}b", "organisation"),
            self.rows(),
            title="Figure 6: rows required for one modular multiplication",
        )
        breakdown = (
            f"ModSRAM {self.modsram_array_rows}-row array usage: "
            f"{util.operand_rows_used} operand rows in use "
            f"(capacity {util.operand_capacity}), "
            f"{util.intermediate_rows} intermediate rows (sum/carry), "
            f"{util.lut_rows} LUT rows (radix-4 + overflow), "
            f"{util.free_rows} rows free for further operands"
        )
        return f"{table}\n{breakdown}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        util = self.modsram_utilization
        return {
            "bitwidth": self.bitwidth,
            "rows_by_design": dict(self.rows_by_design),
            "modsram_utilization": {
                "total_rows": util.total_rows,
                "operand_rows_used": util.operand_rows_used,
                "operand_capacity": util.operand_capacity,
                "intermediate_rows": util.intermediate_rows,
                "lut_rows": util.lut_rows,
            },
            "modsram_array_rows": self.modsram_array_rows,
        }


def reproduce_figure6(
    bitwidth: int = 256, config: Optional[ModSRAMConfig] = None
) -> Figure6Result:
    """Reproduce the memory-utilisation comparison at ``bitwidth`` bits."""
    config = config or PAPER_CONFIG
    memory_map = MemoryMap(config)
    rows_by_design = {
        key: get_design(key).rows_required(bitwidth)
        for key in ("mentt", "bpntt", "modsram")
    }
    return Figure6Result(
        bitwidth=bitwidth,
        rows_by_design=rows_by_design,
        modsram_utilization=memory_map.utilization(),
        modsram_array_rows=config.rows,
    )
