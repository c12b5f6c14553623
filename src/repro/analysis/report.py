"""Run every experiment reproduction and print one consolidated report.

The report is composed from the Experiment API
(:mod:`repro.experiments`): each section is one registered experiment, so
the sections can execute in parallel across a process pool and reuse the
runner's content-hash disk cache.  The rendered text is byte-identical to
the serial, uncached path whatever runner composes it.

From the shell, ``repro report`` builds it; ``--quick`` applies each
experiment's quick overrides (smaller workloads), and every measured
exhibit still runs its cycle-accurate multiplications.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.registry import REPORT_EXPERIMENTS
from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec

__all__ = ["REPORT_EXPERIMENTS", "build_report"]

#: Separator between report sections.
REPORT_DIVIDER = "\n\n" + "=" * 78 + "\n\n"


def build_report(quick: bool = False, runner: Optional[Runner] = None) -> str:
    """Produce the full text report covering every table and figure.

    ``runner`` decides parallelism and caching (default: serial, no
    cache); the rendered text is the same either way.
    """
    runner = runner or Runner(use_cache=False)
    specs = [ExperimentSpec(name) for name in REPORT_EXPERIMENTS]
    results = runner.run_specs(specs, quick=quick)
    return REPORT_DIVIDER.join(result.render() for result in results)
