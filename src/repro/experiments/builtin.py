"""Built-in experiment definitions: one per paper table/figure.

Importing this module registers every reproduction entry point —
``table1``, ``figure1``, ``figure5``, ``figure6``, ``figure7``, ``table3``,
``headline``, plus the beyond-the-paper ``design-point`` (cycles, latency,
area and energy per multiplication), the ``dse-point`` and ``dse``
design-space sweeps, the multi-macro ``chip-scaling`` exhibit, the async
``serving-throughput`` exhibit and the RTL ``hdl-cosim`` agreement check —
with :mod:`repro.experiments.registry`.
The registry imports it lazily, and every entry point imports its exhibit
when it first runs, so reading the registry (as the CLI parser does)
loads no exhibit layer.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

from repro.core.complexity import PAPER_FIGURE1_BITWIDTHS
from repro.engine import EngineSpec
from repro.experiments.registry import ExperimentDefinition, register_experiment

__all__ = []


def _entry(path: str) -> Callable[..., Any]:
    """The function at ``"module:name"``, imported when it is first called."""
    module, _, name = path.partition(":")

    def run(**params: Any) -> Any:
        return getattr(import_module(module), name)(**params)

    return run


def _run_figure1(bitwidths, seed):
    from repro.analysis.figure1 import reproduce_figure1

    return reproduce_figure1(bitwidths=tuple(int(b) for b in bitwidths), seed=seed)


def _run_figure5(rows=None, bitwidth=None, technology_nm=None):
    from repro.analysis.figure5 import reproduce_figure5
    from repro.modsram.config import PAPER_CONFIG, build_design_config

    config = None
    if any(value is not None for value in (rows, bitwidth, technology_nm)):
        config = build_design_config(
            bitwidth=bitwidth if bitwidth is not None else PAPER_CONFIG.bitwidth,
            rows=rows,
            technology_nm=(
                technology_nm
                if technology_nm is not None
                else PAPER_CONFIG.technology_nm
            ),
        )
    return reproduce_figure5(config)


def _run_figure7(vector_size=None, bitwidth=None, msm_window_bits=16):
    from repro.analysis.figure7 import reproduce_figure7
    from repro.zkp.opcount import PAPER_FIGURE7_BITWIDTH, PAPER_FIGURE7_VECTOR_SIZE

    return reproduce_figure7(
        vector_size=PAPER_FIGURE7_VECTOR_SIZE if vector_size is None else vector_size,
        bitwidth=PAPER_FIGURE7_BITWIDTH if bitwidth is None else bitwidth,
        msm_window_bits=msm_window_bits,
    )


register_experiment(
    ExperimentDefinition(
        name="table1",
        title="Tables 1a/1b/2: Booth encoder and LUT contents",
        description=(
            "Regenerate the radix-4 Booth encoder truth table and the "
            "radix-4 / carry-overflow LUTs from the implementation."
        ),
        run=_entry("repro.analysis.table1:reproduce_tables"),
        defaults={"multiplicand": None, "modulus": None},
        sweep_axes=("multiplicand", "modulus"),
    )
)

register_experiment(
    ExperimentDefinition(
        name="figure1",
        title="Figure 1: cycles vs bitwidth across algorithms",
        description=(
            "Analytic cycle laws for every algorithm plus cycle-accurate "
            "ModSRAM measurements over the paper's bitwidth sweep."
        ),
        run=_run_figure1,
        defaults={"bitwidths": list(PAPER_FIGURE1_BITWIDTHS), "seed": 2024},
        sweep_axes=("seed",),
    )
)

register_experiment(
    ExperimentDefinition(
        name="figure5",
        title="Figure 5: macro area breakdown",
        description=(
            "Parametric area model versus the paper's published breakdown "
            "and SRAM overhead."
        ),
        run=_run_figure5,
        defaults={"rows": None, "bitwidth": None, "technology_nm": None},
        sweep_axes=("rows", "bitwidth", "technology_nm"),
    )
)

register_experiment(
    ExperimentDefinition(
        name="figure6",
        title="Figure 6: rows required per PIM design",
        description=(
            "Row requirements of MeNTT / BP-NTT / ModSRAM for one modular "
            "multiplication plus ModSRAM's region breakdown."
        ),
        run=_entry("repro.analysis.figure6:reproduce_figure6"),
        defaults={"bitwidth": 256},
        sweep_axes=("bitwidth",),
    )
)

register_experiment(
    ExperimentDefinition(
        name="figure7",
        title="Figure 7: ZKP kernel operation counts",
        description=(
            "Closed-form NTT/MSM operation counts, by default at the "
            "paper's 2^15-element, 256-bit operating point."
        ),
        run=_run_figure7,
        defaults={"vector_size": None, "bitwidth": None, "msm_window_bits": 16},
        sweep_axes=("vector_size", "bitwidth"),
    )
)

register_experiment(
    ExperimentDefinition(
        name="table3",
        title="Table 3: PIM design comparison",
        description=(
            "Every Table 3 row rebuilt from the library's own models, "
            "with the ModSRAM cycles measured at the table's bitwidth."
        ),
        run=_entry("repro.analysis.table3:reproduce_table3"),
        defaults={"bitwidth": 256},
        sweep_axes=("bitwidth",),
    )
)

register_experiment(
    ExperimentDefinition(
        name="headline",
        title="Headline claims scorecard",
        description=(
            "The paper's section 5.3 headline claims, paper value versus "
            "reproduced value."
        ),
        run=_entry("repro.analysis.headline:reproduce_headline_claims"),
    )
)


def _run_chip_scaling(
    workload, macro_counts, bitwidth, scalar_bits, signatures, vector_size, msm_points
):
    from repro.analysis.chip_scaling import reproduce_chip_scaling

    return reproduce_chip_scaling(
        workload=workload,
        macro_counts=tuple(int(count) for count in macro_counts),
        bitwidth=bitwidth,
        scalar_bits=scalar_bits,
        signatures=signatures,
        vector_size=vector_size,
        msm_points=msm_points,
    )


register_experiment(
    ExperimentDefinition(
        name="chip-scaling",
        title="Chip scale-out: N-macro throughput on real workloads",
        description=(
            "Dispatch an ECDSA/NTT/MSM multiplication stream across chips "
            "of increasing macro count with the LUT-reuse-aware scheduler; "
            "report throughput, reuse rate, speedup and efficiency."
        ),
        run=_run_chip_scaling,
        defaults={
            "workload": "ecdsa-sign",
            "macro_counts": [1, 2, 4, 8, 16],
            "bitwidth": 256,
            "scalar_bits": 256,
            "signatures": 1,
            "vector_size": 4096,
            "msm_points": 128,
        },
        quick_overrides={
            "macro_counts": [1, 2, 4],
            "scalar_bits": 64,
            "vector_size": 256,
            "msm_points": 16,
        },
        sweep_axes=("workload", "bitwidth", "vector_size", "msm_points", "signatures"),
    )
)

register_experiment(
    ExperimentDefinition(
        name="serving-throughput",
        title="Async serving layer: multi-tenant throughput and latency",
        description=(
            "Drive the asyncio Server with concurrent multi-tenant traffic "
            "(operand batches + product-tree workload graphs, every product "
            "verified); report throughput, latency percentiles, batching "
            "coalescing and context-cache behaviour."
        ),
        run=_entry("repro.analysis.serving:reproduce_serving_throughput"),
        defaults={
            "backend": EngineSpec.backend,
            "curve": "bn254",
            "tenants": 4,
            "requests": 32,
            "pairs_per_request": 8,
            "graph_every": 8,
            "graph_leaves": 16,
            "max_batch": 64,
            "seed": 2024,
            "workers": 0,
        },
        quick_overrides={
            "tenants": 2,
            "requests": 8,
            "pairs_per_request": 4,
            "graph_leaves": 8,
        },
        sweep_axes=(
            "backend", "tenants", "requests", "max_batch", "workers",
        ),
    )
)

register_experiment(
    ExperimentDefinition(
        name="design-point",
        title="ModSRAM design point (DSE)",
        description=(
            "Cycles, latency, area and energy (with its per-mechanism "
            "breakdown) of one checked multiplication on one ModSRAM "
            "configuration; sweep bitwidth/rows/technology for "
            "design-space exploration."
        ),
        run=_entry("repro.analysis.design_point:reproduce_design_point"),
        defaults={
            "bitwidth": 256,
            "rows": None,
            "columns": None,
            "banks": 1,
            "technology_nm": 65,
            "seed": 5,
        },
        sweep_axes=("bitwidth", "rows", "columns", "banks", "technology_nm"),
    )
)

register_experiment(
    ExperimentDefinition(
        name="hdl-cosim",
        title="HDL co-simulation: RTL cycle agreement vs modeled tiers",
        description=(
            "Elaborate the ModSRAM macro RTL and run the same operands "
            "through the event-driven simulator, the cycle-accurate tier "
            "and the analytical model; products must be bit-identical and "
            "cycle reports equal field by field (including the paper's 767 "
            "main-loop cycles at 256 bits)."
        ),
        run=_entry("repro.analysis.hdl_cosim:reproduce_hdl_cosim"),
        defaults={
            "bitwidths": [16, 32, 64],
            "cases": 5,
            "seed": 2024,
        },
        quick_overrides={"bitwidths": [16, 24], "cases": 3},
        sweep_axes=("bitwidths", "cases", "seed"),
    )
)


def _run_dse_point(**params):
    from repro.dse.evaluate import evaluate_design_point
    from repro.dse.spec import DesignPoint

    return evaluate_design_point(DesignPoint.from_params(params))


def _run_dse(spec=None, sample=None, workload_ops=None):
    from repro.dse.run import run_dse
    from repro.dse.spec import SweepSpec, default_sweep_spec

    sweep = SweepSpec.from_dict(spec) if spec else default_sweep_spec()
    if workload_ops is not None:
        sweep = sweep.with_fixed(workload_ops=int(workload_ops))
    if sample is not None:
        sweep = sweep.quick(per_axis=int(sample))
    return run_dse(sweep)


register_experiment(
    ExperimentDefinition(
        name="dse-point",
        title="DSE: evaluate one swept design point",
        description=(
            "Price one geometry/radix/macro-count/scheduler/workload "
            "configuration with the geometry-aware analytical algebra "
            "(throughput, energy/op, area), optionally verified against "
            "the cycle or hdl tier by a seeded probe multiplication."
        ),
        run=_run_dse_point,
        defaults={
            "bitwidth": 256,
            "rows": 64,
            "columns": None,
            "banks": 1,
            "radix": 4,
            "overflow_rows": 8,
            "technology_nm": 65,
            "macros": 1,
            "scheduler": "lut-aware",
            "workload": "ecdsa-sign",
            "workload_ops": 512,
            "fidelity": "analytical",
        },
        quick_overrides={"workload_ops": 128},
        sweep_axes=(
            "bitwidth",
            "rows",
            "columns",
            "banks",
            "radix",
            "macros",
            "scheduler",
            "workload",
        ),
    )
)

register_experiment(
    ExperimentDefinition(
        name="dse",
        title="DSE: full sweep with Pareto-frontier extraction",
        description=(
            "Expand a declarative sweep spec (default: the built-in "
            "640-point grid) into design points, evaluate each in-process, "
            "and extract the throughput/energy/area Pareto frontier with "
            "dominated-point accounting."
        ),
        run=_run_dse,
        defaults={
            "spec": None,
            "sample": None,
            "workload_ops": None,
        },
        quick_overrides={"sample": 2, "workload_ops": 128},
        sweep_axes=("sample",),
    )
)
