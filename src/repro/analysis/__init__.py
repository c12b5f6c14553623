"""Experiment reproductions: one module per table/figure of the paper.

Every entry point below is registered as a named experiment of the
Experiment API (:mod:`repro.experiments`) — ``table1``, ``figure1``,
``figure5``, ``figure6``, ``figure7``, ``table3``, ``headline``,
``design-point`` (cycles, latency, area and energy per multiplication, with
its mechanism breakdown), ``chip-scaling`` — so it can be parameterised,
swept over a grid and printed as structured JSON::

    from repro.experiments import get_experiment

    print(get_experiment("table3").execute(quick=True).render())

or, from the shell, ``repro experiment run table3 --json`` and
``repro report``.  The ``reproduce_*`` functions are the thin, direct
entry points the experiments wrap: calling them yields the same result
objects, each with ``render()`` and a JSON-clean ``to_dict()``.
"""

from repro.analysis.chip_scaling import (
    ChipScalingPoint,
    ChipScalingResult,
    reproduce_chip_scaling,
)
from repro.analysis.design_point import DesignPointResult, reproduce_design_point
from repro.analysis.figure1 import Figure1Result, measure_modsram_cycles, reproduce_figure1
from repro.analysis.figure5 import Figure5Result, reproduce_figure5
from repro.analysis.figure6 import Figure6Result, reproduce_figure6
from repro.analysis.figure7 import (
    Figure7Result,
    reproduce_figure7,
)
from repro.analysis.headline import HeadlineClaim, HeadlineResult, reproduce_headline_claims
from repro.analysis.report import REPORT_EXPERIMENTS, build_report
from repro.analysis.table1 import TableOneResult, reproduce_tables
from repro.analysis.table3 import DESIGN_ORDER, Table3Result, reproduce_table3
from repro.tables import format_value, render_table

__all__ = [
    "ChipScalingPoint",
    "ChipScalingResult",
    "DESIGN_ORDER",
    "DesignPointResult",
    "Figure1Result",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "HeadlineClaim",
    "HeadlineResult",
    "REPORT_EXPERIMENTS",
    "Table3Result",
    "TableOneResult",
    "build_report",
    "format_value",
    "measure_modsram_cycles",
    "render_table",
    "reproduce_chip_scaling",
    "reproduce_design_point",
    "reproduce_figure1",
    "reproduce_figure5",
    "reproduce_figure6",
    "reproduce_figure7",
    "reproduce_headline_claims",
    "reproduce_table3",
    "reproduce_tables",
]
