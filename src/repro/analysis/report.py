"""Run every experiment reproduction and print one consolidated report.

The report is composed from the Experiment API (:mod:`repro.experiments`):
each section is one registered experiment, run in-process in
:data:`REPORT_EXPERIMENTS` order and rendered from its live result.

From the shell, ``repro report`` builds it; ``--quick`` applies each
experiment's quick overrides (smaller workloads), and every measured
exhibit still runs its cycle-accurate multiplications.
"""

from __future__ import annotations

from repro.experiments.registry import REPORT_EXPERIMENTS, get_experiment

__all__ = ["REPORT_EXPERIMENTS", "build_report"]

#: Separator between report sections.
REPORT_DIVIDER = "\n\n" + "=" * 78 + "\n\n"


def build_report(quick: bool = False) -> str:
    """Produce the full text report covering every table and figure."""
    return REPORT_DIVIDER.join(
        get_experiment(name).execute(quick=quick).render()
        for name in REPORT_EXPERIMENTS
    )
