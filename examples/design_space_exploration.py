#!/usr/bin/env python3
"""Design-space exploration through the declarative Experiment API.

The paper evaluates one design point (64 x 256, 65 nm, 256-bit).  Because
every model in this library is parametric, the same machinery answers
"what if" questions a deployment would ask.  This example asks them as a
*sweep* of the registered ``design-point`` experiment rather than a
hand-rolled loop: an ``ExperimentSpec`` expands the grid, each point runs
in-process, and the structured results render to the familiar tables.

Run with ``python examples/design_space_exploration.py``.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.experiments import ExperimentSpec, get_experiment
from repro.sram import LogicSenseAmpModule, SenseAmpParameters


def sweep(axis, values):
    """Every ``design-point`` result along one axis, in grid order."""
    spec = ExperimentSpec("design-point", sweep={axis: values})
    definition = get_experiment(spec.experiment)
    return [definition.execute(point).result for point in spec.points()]


def bitwidth_sweep() -> None:
    """Cycles / latency / area / energy across operand widths."""
    rows = []
    for point in sweep("bitwidth", (64, 128, 192, 256)):
        rows.append(
            (
                point.bitwidth,
                point.iteration_cycles,
                round(point.latency_us, 2),
                round(point.area_mm2, 4),
                round(point.energy_pj, 1),
            )
        )
    print(render_table(
        ("bitwidth", "cycles", "latency (us)", "area (mm^2)", "energy/op (pJ)"),
        rows,
        title="Bitwidth sweep (paper schedule, 64-row array)",
    ))
    print()


def technology_sweep() -> None:
    """First-order constant-field scaling across process nodes."""
    rows = []
    for point in sweep("technology_nm", (65, 45, 28)):
        rows.append(
            (
                f"{point.technology_nm} nm",
                round(point.frequency_mhz, 0),
                round(point.latency_us, 2),
                round(point.area_mm2, 4),
            )
        )
    print(render_table(
        ("node", "frequency (MHz)", "latency (us)", "area (mm^2)"),
        rows,
        title="Technology scaling (first-order constant-field rules)",
    ))
    print()


def sensing_margin_study() -> None:
    rows = []
    for sigma_mv in (5, 15, 30, 45, 60):
        module = LogicSenseAmpModule(columns=256, parameters=SenseAmpParameters())
        probability = module.failure_probability(sigma_mv * 1e-3)
        per_access = 1 - (1 - probability) ** (3 * 256)
        rows.append(
            (
                sigma_mv,
                f"{module.worst_case_margin_v() * 1e3:.0f} mV",
                f"{probability:.2e}",
                f"{per_access:.2e}",
            )
        )
    print(render_table(
        ("bitline noise sigma (mV)", "worst-case margin", "per-SA flip probability",
         "per-access failure probability"),
        rows,
        title="Logic-SA sensing-margin study (three references per bitline)",
    ))


def main() -> None:
    bitwidth_sweep()
    technology_sweep()
    sensing_margin_study()


if __name__ == "__main__":
    main()
