"""Declarative design-space exploration over the ModSRAM model stack.

The paper evaluates one design point; this package sweeps the whole
neighbourhood the way rad_gen drives SRAM macro generation from YAML
configs.  A :class:`SweepSpec` (JSON, or YAML when PyYAML is available)
declares fixed values and swept axes over macro geometry (rows, columns,
banking), Booth radix, LUT sizing, macro count, scheduler policy, workload
mix and probe fidelity; :func:`run_dse` expands it into validated
:class:`DesignPoint`\\ s, evaluates each in-process
(:func:`evaluate_design_point`), and reduces the sweep into the
throughput / energy-per-op / area Pareto frontier with dominated-point
accounting.

Surfaces: the ``repro dse run`` CLI, the registered ``dse`` and
``dse-point`` experiments, and ``benchmarks/bench_dse.py`` →
``BENCH_dse.json``.
"""

from repro.dse.evaluate import DsePointResult, evaluate_design_point
from repro.dse.frontier import (
    DEFAULT_OBJECTIVES,
    FrontierPoint,
    Objective,
    pareto_frontier,
)
from repro.dse.run import DseRunResult, run_dse
from repro.dse.spec import (
    DSE_FIDELITIES,
    DSE_WORKLOADS,
    DesignPoint,
    SweepSpec,
    default_sweep_spec,
    load_spec,
    parse_spec,
)

__all__ = [
    "DesignPoint",
    "SweepSpec",
    "DsePointResult",
    "DseRunResult",
    "Objective",
    "FrontierPoint",
    "DEFAULT_OBJECTIVES",
    "DSE_WORKLOADS",
    "DSE_FIDELITIES",
    "default_sweep_spec",
    "load_spec",
    "parse_spec",
    "evaluate_design_point",
    "pareto_frontier",
    "run_dse",
]
