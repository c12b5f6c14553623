"""Experiment API: declarative specs, run in-process, live results.

Every table and figure of the paper is a registered *experiment* — a named,
parameterised entry point returning a structured result.  The API has three
pieces:

* :class:`~repro.experiments.registry.ExperimentDefinition` — one entry
  point with its defaults, quick overrides and sweep axes;
  :meth:`~repro.experiments.registry.ExperimentDefinition.execute` runs it
  in-process at one parameter point;
* :class:`~repro.experiments.spec.ExperimentSpec` — a declarative request
  (experiment name, parameter overrides, sweep/grid axes) whose
  :meth:`~repro.experiments.spec.ExperimentSpec.points` expand the grid;
* :class:`~repro.experiments.spec.ExperimentResult` — the resolved
  parameters plus the live result object, whose :meth:`render` is the text
  view and whose :meth:`to_dict` is the ``--json`` output.

Quickstart::

    from repro.experiments import ExperimentSpec, get_experiment

    result = get_experiment("headline").execute(quick=True)
    print(result.render())                          # claims scorecard
    spec = ExperimentSpec("design-point", sweep={"bitwidth": [64, 128, 256]})
    sweep = [get_experiment(spec.experiment).execute(p) for p in spec.points()]

``repro experiment list`` shows every registered experiment;
``repro experiment run NAME --json`` and ``repro experiment sweep NAME
--axis k=v1,v2`` drive the same calls from the shell, and ``repro report``
composes the consolidated report from them.
"""

from repro.experiments.registry import (
    REPORT_EXPERIMENTS,
    ExperimentDefinition,
    available_experiments,
    get_experiment,
    register_experiment,
)
from repro.experiments.spec import ExperimentResult, ExperimentSpec

__all__ = [
    "ExperimentDefinition",
    "ExperimentResult",
    "ExperimentSpec",
    "REPORT_EXPERIMENTS",
    "available_experiments",
    "get_experiment",
    "register_experiment",
]
