"""Command-line interface for the ModSRAM reproduction.

The arithmetic subcommands go through the unified :class:`repro.engine.Engine`
facade, so every registered backend — software algorithms, the cycle-level
ModSRAM model and the Table 3 PIM baselines — is reachable from the shell::

    python -m repro.cli report   [--quick]
    python -m repro.cli experiment list [--json]    # registered experiments
    python -m repro.cli experiment run NAME [--quick] [--set K=V] [--json]
    python -m repro.cli experiment sweep NAME --axis K=V1,V2 [--json]
    python -m repro.cli multiply A B [--modulus P] [--backend NAME] [--curve NAME] [--json]
    python -m repro.cli batch    [--count N] [--backend NAME] [--seed S] [--json]
    python -m repro.cli chip     [--workload W] [--macros 1,2,4] [--json]
    python -m repro.cli serve    --self-test [--quick] [--workers N] [--json]
    python -m repro.cli submit   [--workload batch|product-tree] [--json]
    python -m repro.cli cluster router   [--port P] [--replication R]
    python -m repro.cli cluster worker   --port P [--name N] [--pool-workers W]
    python -m repro.cli cluster loadtest [--workers N] [--kill-worker] [--json]
    python -m repro.cli backends [--json]           # backend capability matrix
    python -m repro.cli cycles   [--bitwidth N]     # cycle model + comparison
    python -m repro.cli area     [--rows R] [--bitwidth N] [--technology NM]
    python -m repro.cli verify   [--bitwidth N] [--cases K]   # equivalence check
    python -m repro.cli hdl emit  [--bitwidth N] [--out DIR] [--check]
    python -m repro.cli hdl cosim [--quick] [--json]          # RTL agreement
    python -m repro.cli dse run [SPEC] [--quick] [--sample N] [--json]
    python -m repro.cli dse frontier RESULTS [--json]

The same interface is reachable as ``python -m repro`` and as the
``repro`` console script.  The ``experiment`` subcommands drive the
declarative Experiment API (:mod:`repro.experiments`): every paper
table/figure as a parameterisable, sweepable experiment, run in-process.
Values may be given in decimal or ``0x``-prefixed hexadecimal.
"""

from __future__ import annotations

import argparse
import json
import random
from typing import List, Optional

from repro.analysis.chip_scaling import CHIP_WORKLOADS
from repro.analysis.report import build_report
from repro.analysis.tables import render_table
from repro.core.complexity import COMPLEXITY_MODELS
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import Engine, EngineSpec, available_backends, get_backend
from repro.errors import ReproError
from repro.experiments import ExperimentSpec, available_experiments, get_experiment
from repro.modsram.area import AreaModel
from repro.modsram.config import ModSRAMConfig
from repro.modsram.verification import EquivalenceChecker

__all__ = ["main", "build_parser"]


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_param_value(text: str) -> object:
    """A ``--set``/``--axis`` value: JSON first, then 0x-int, then string."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        return int(text, 0)
    except ValueError:
        return text


def _parse_assignments(pairs: Optional[List[str]], option: str) -> dict:
    """``KEY=VALUE`` strings into a parameter dictionary."""
    params = {}
    for pair in pairs or []:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(
                f"{option} expects KEY=VALUE, got {pair!r}"
            )
        params[key] = _parse_param_value(value)
    return params


def _parse_axes(pairs: Optional[List[str]]) -> dict:
    """``KEY=V1,V2,...`` strings into sweep axes."""
    axes = {}
    for pair in pairs or []:
        key, separator, values = pair.partition("=")
        if not separator or not key or not values:
            raise ReproError(
                f"--axis expects KEY=VALUE[,VALUE...], got {pair!r}"
            )
        axes[key] = [_parse_param_value(value) for value in values.split(",")]
    return axes


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ModSRAM (DAC 2024) reproduction command-line interface.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser("report", help="reproduce every table and figure")
    report.add_argument(
        "--quick", action="store_true",
        help="apply each experiment's quick overrides (smaller workloads)",
    )

    experiment = subparsers.add_parser(
        "experiment",
        help="declarative experiment API: list, run or sweep any table/figure",
    )
    experiment_commands = experiment.add_subparsers(
        dest="experiment_command", required=True
    )

    experiment_list = experiment_commands.add_parser(
        "list", help="every registered experiment with its parameters"
    )
    experiment_list.add_argument(
        "--json", action="store_true", help="emit the experiment metadata as JSON"
    )

    experiment_run = experiment_commands.add_parser(
        "run", help="run one experiment and print its result"
    )
    experiment_run.add_argument("name", help="experiment name (see 'experiment list')")
    experiment_run.add_argument(
        "--set",
        dest="assignments",
        action="append",
        metavar="KEY=VALUE",
        help="override one parameter (repeatable)",
    )
    experiment_run.add_argument(
        "--quick", action="store_true", help="apply the experiment's quick overrides"
    )
    experiment_run.add_argument(
        "--json", action="store_true", help="emit the structured result as JSON"
    )

    experiment_sweep = experiment_commands.add_parser(
        "sweep", help="run a cartesian parameter sweep of one experiment"
    )
    experiment_sweep.add_argument(
        "name", help="experiment name (see 'experiment list')"
    )
    experiment_sweep.add_argument(
        "--axis",
        dest="axes",
        action="append",
        metavar="KEY=V1,V2",
        required=True,
        help="sweep axis with its values (repeatable; axes form a grid)",
    )
    experiment_sweep.add_argument(
        "--set",
        dest="assignments",
        action="append",
        metavar="KEY=VALUE",
        help="fix one non-swept parameter (repeatable)",
    )
    experiment_sweep.add_argument(
        "--quick", action="store_true", help="apply the experiment's quick overrides"
    )
    experiment_sweep.add_argument(
        "--render",
        action="store_true",
        help="print every point's full text view instead of the summary table",
    )
    experiment_sweep.add_argument(
        "--json", action="store_true", help="emit the sweep results as JSON"
    )

    multiply = subparsers.add_parser("multiply", help="one modular multiplication")
    multiply.add_argument("a", type=_parse_int, help="multiplier (decimal or 0x...)")
    multiply.add_argument("b", type=_parse_int, help="multiplicand")
    multiply.add_argument("--modulus", type=_parse_int, default=None, help="modulus p")
    multiply.add_argument(
        "--curve",
        choices=sorted(CURVE_SPECS),
        default="bn254",
        help="use this curve's base-field prime when --modulus is not given",
    )
    multiply.add_argument(
        "--backend",
        default="r4csa-lut",
        help="engine backend (see 'repro backends' for the list)",
    )
    multiply.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )

    batch = subparsers.add_parser(
        "batch", help="batched multiplication through the engine's context cache"
    )
    batch.add_argument(
        "--count", type=int, default=256, help="number of operand pairs"
    )
    batch.add_argument("--modulus", type=_parse_int, default=None, help="modulus p")
    batch.add_argument(
        "--curve",
        choices=sorted(CURVE_SPECS),
        default="bn254",
        help="use this curve's base-field prime when --modulus is not given",
    )
    batch.add_argument(
        "--backend",
        default="r4csa-lut",
        help="engine backend (see 'repro backends' for the list)",
    )
    batch.add_argument(
        "--seed", type=int, default=2024, help="seed for the random operand pairs"
    )
    batch.add_argument(
        "--json", action="store_true", help="emit the batch result as JSON"
    )

    chip = subparsers.add_parser(
        "chip",
        help="multi-macro chip scale-out of one workload (the chip-scaling "
             "experiment as a shortcut)",
    )
    # A flag left unset takes the chip-scaling experiment's default (see
    # 'repro experiment list').
    chip.add_argument(
        "--workload",
        choices=sorted(CHIP_WORKLOADS),
        help="multiplication stream to dispatch across the chip",
    )
    chip.add_argument(
        "--macros",
        dest="macro_counts",
        metavar="MACROS",
        help="comma-separated macro counts to scale across",
    )
    chip.add_argument("--bitwidth", type=int, help="operand width")
    chip.add_argument(
        "--scalar-bits", type=int, help="scalar width (ECC/MSM workloads)"
    )
    chip.add_argument(
        "--signatures", type=int, help="signatures (ecdsa-sign workload)"
    )
    chip.add_argument(
        "--size", dest="vector_size", metavar="SIZE", type=int,
        help="vector size (ntt workload)",
    )
    chip.add_argument(
        "--points", dest="msm_points", metavar="POINTS", type=int,
        help="point count (msm workload)",
    )
    chip.add_argument(
        "--quick", action="store_true",
        help="apply the experiment's quick overrides to every flag left unset",
    )
    chip.add_argument(
        "--json", action="store_true", help="emit the structured result as JSON"
    )

    serve = subparsers.add_parser(
        "serve",
        help="the async serving layer (self-test traffic against an "
             "in-process server)",
    )
    serve.add_argument(
        "--self-test",
        dest="self_test",
        action="store_true",
        help="drive the built-in multi-tenant traffic mix and report metrics",
    )
    serve.add_argument(
        "--backend",
        default=EngineSpec.backend,
        help="engine backend serving the traffic",
    )
    serve.add_argument(
        "--curve",
        choices=sorted(CURVE_SPECS),
        default="bn254",
        help="curve whose base-field prime the traffic multiplies under",
    )
    serve.add_argument(
        "--tenants", type=int, default=None,
        help="concurrent client tenants (default 4; 2 under --quick)",
    )
    serve.add_argument(
        "--requests", type=int, default=None,
        help="requests per tenant (default 32; 8 under --quick)",
    )
    serve.add_argument(
        "--quick", action="store_true", help="shrink the traffic for CI smoke"
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="shard batch execution across N worker processes "
             "(0 = inline on the event loop)",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit the metrics summary as JSON"
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit one request to an in-process server and await the result",
    )
    submit.add_argument(
        "--workload",
        choices=("batch", "product-tree"),
        default="product-tree",
        help="request shape: a flat operand batch or a workload graph",
    )
    submit.add_argument(
        "--count", type=int, default=16,
        help="operand pairs (batch) or leaves (product-tree)",
    )
    submit.add_argument(
        "--backend",
        default=EngineSpec.backend,
        help="engine backend (see 'repro backends' for the list)",
    )
    submit.add_argument(
        "--curve",
        choices=sorted(CURVE_SPECS),
        default="bn254",
        help="use this curve's base-field prime when --modulus is not given",
    )
    submit.add_argument("--modulus", type=_parse_int, default=None, help="modulus p")
    submit.add_argument(
        "--seed", type=int, default=2024, help="seed for the random operands"
    )
    submit.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline in milliseconds",
    )
    submit.add_argument(
        "--json", action="store_true", help="emit the response as JSON"
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="the multi-node serving fleet: router, worker nodes, load tests",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    cluster_router = cluster_commands.add_parser(
        "router",
        help="run a cluster router (placement, replication, SLOs) until "
             "interrupted",
    )
    cluster_router.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    cluster_router.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    cluster_router.add_argument(
        "--backend", default=EngineSpec.backend,
        help="engine backend every joining worker builds",
    )
    cluster_router.add_argument(
        "--curve",
        choices=sorted(CURVE_SPECS),
        default=None,
        help="default curve of the fleet's engine spec",
    )
    cluster_router.add_argument(
        "--modulus", type=_parse_int, default=None,
        help="default modulus of the fleet's engine spec",
    )
    cluster_router.add_argument(
        "--replication", type=int, default=2,
        help="ring owners a modulus may be placed on (hot-modulus spread)",
    )
    cluster_router.add_argument(
        "--rate-per-tenant", type=float, default=None,
        help="token-bucket rate per tenant in pairs/second (default: unlimited)",
    )

    cluster_worker = cluster_commands.add_parser(
        "worker",
        help="run one worker node against a router until released",
    )
    cluster_worker.add_argument(
        "--host", default="127.0.0.1", help="router address"
    )
    cluster_worker.add_argument(
        "--port", type=int, required=True, help="router port"
    )
    cluster_worker.add_argument(
        "--name", default=None, help="node name (default: worker-<pid>)"
    )
    cluster_worker.add_argument(
        "--pool-workers", type=int, default=0,
        help="process-pool shards under this node's server (0 = inline)",
    )

    cluster_loadtest = cluster_commands.add_parser(
        "loadtest",
        help="spin up a local fleet, replay a seeded multi-tenant trace, "
             "verify every product",
    )
    cluster_loadtest.add_argument(
        "--workers", type=int, default=2, help="worker node processes"
    )
    cluster_loadtest.add_argument(
        "--duration", type=float, default=2.0,
        help="trace duration in seconds",
    )
    cluster_loadtest.add_argument(
        "--rate", type=float, default=30.0,
        help="mean request rate per tenant (requests/second)",
    )
    cluster_loadtest.add_argument(
        "--seed", type=int, default=2024, help="trace seed"
    )
    cluster_loadtest.add_argument(
        "--kill-worker", dest="kill_worker", action="store_true",
        help="SIGKILL one worker halfway through (recovery must lose nothing)",
    )
    cluster_loadtest.add_argument(
        "--quick", action="store_true", help="shrink the trace for CI smoke"
    )
    cluster_loadtest.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (lost/mismatches/latency "
             "percentiles) as JSON instead of the human summary",
    )
    cluster_loadtest.add_argument(
        "--output", default=None, metavar="PATH",
        help="additionally write the JSON report to PATH (works with or "
             "without --json)",
    )

    backends = subparsers.add_parser(
        "backends", help="capability matrix of every registered engine backend"
    )
    backends.add_argument(
        "--json", action="store_true", help="emit the backend metadata as JSON"
    )

    cycles = subparsers.add_parser("cycles", help="cycle models at a bitwidth")
    cycles.add_argument("--bitwidth", type=int, default=256)

    area = subparsers.add_parser("area", help="area model for a configuration")
    area.add_argument("--rows", type=int, default=64)
    area.add_argument("--bitwidth", type=int, default=256)
    area.add_argument("--technology", type=int, default=65)

    verify = subparsers.add_parser(
        "verify", help="equivalence-check the accelerator against the oracle"
    )
    verify.add_argument("--bitwidth", type=int, default=32)
    verify.add_argument("--cases", type=int, default=8)

    hdl = subparsers.add_parser(
        "hdl",
        help="the RTL tier: emit the macro Verilog, run the co-simulation",
    )
    hdl_commands = hdl.add_subparsers(dest="hdl_command", required=True)

    hdl_emit = hdl_commands.add_parser(
        "emit",
        help="elaborate the ModSRAM macro and write its Verilog "
             "(deterministic; doubles as the golden-file gate)",
    )
    hdl_emit.add_argument(
        "--bitwidth", type=int, default=256, help="operand width in bits"
    )
    hdl_emit.add_argument(
        "--out", default="tests/hdl/golden", metavar="DIR",
        help="directory the .v files are written to, or compared against "
             "with --check (default: the golden directory)",
    )
    hdl_emit.add_argument(
        "--check", action="store_true",
        help="compare the emitted RTL against the files already in --out "
             "instead of writing; exit 1 on drift",
    )

    hdl_cosim = hdl_commands.add_parser(
        "cosim",
        help="run the hdl-cosim experiment: event-driven RTL simulation "
             "vs the cycle and analytical tiers",
    )
    hdl_cosim.add_argument(
        "--quick", action="store_true", help="shrink the sweep for CI smoke"
    )
    hdl_cosim.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    hdl_cosim.add_argument(
        "--cases", type=int, default=None,
        help="operand pairs per bitwidth (default: experiment default)",
    )
    hdl_cosim.add_argument(
        "--seed", type=int, default=None, help="operand stream seed"
    )

    dse = subparsers.add_parser(
        "dse",
        help="declarative design-space exploration with Pareto frontiers",
    )
    dse_commands = dse.add_subparsers(dest="dse_command", required=True)

    dse_run = dse_commands.add_parser(
        "run",
        help="expand a sweep spec into design points, evaluate them "
             "and print the throughput/energy/area Pareto frontier",
    )
    dse_run.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC",
        help="sweep-spec file (JSON, or YAML when PyYAML is installed); "
             "default: the built-in 640-point grid",
    )
    dse_run.add_argument(
        "--quick", action="store_true",
        help="apply the dse experiment's quick overrides to every flag left "
             "unset: 2 values per axis, 128 jobs per point (CI smoke)",
    )
    dse_run.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="keep only the first N values of every axis",
    )
    dse_run.add_argument(
        "--workload-ops", type=int, default=None, metavar="N",
        help="override the per-point workload stream length",
    )
    dse_run.add_argument(
        "--json", action="store_true",
        help="emit the full run result as JSON",
    )
    dse_run.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the run result JSON to PATH "
             "(readable by 'repro dse frontier')",
    )

    dse_frontier = dse_commands.add_parser(
        "frontier",
        help="re-extract and print the Pareto frontier of a saved run",
    )
    dse_frontier.add_argument(
        "input", metavar="RESULTS",
        help="JSON file written by 'repro dse run --output'",
    )
    dse_frontier.add_argument(
        "--json", action="store_true",
        help="emit the frontier as JSON",
    )
    return parser


def _command_report(arguments: argparse.Namespace) -> int:
    print(build_report(quick=arguments.quick))
    return 0


def _command_experiment(arguments: argparse.Namespace) -> int:
    handlers = {
        "list": _command_experiment_list,
        "run": _command_experiment_run,
        "sweep": _command_experiment_sweep,
    }
    return handlers[arguments.experiment_command](arguments)


def _command_experiment_list(arguments: argparse.Namespace) -> int:
    definitions = [get_experiment(name) for name in available_experiments()]
    if arguments.json:
        print(json.dumps([d.describe() for d in definitions], indent=2))
        return 0
    rows = []
    for definition in definitions:
        rows.append(
            (
                definition.name,
                definition.title,
                ", ".join(definition.sweep_axes) or "-",
                "yes" if definition.quick_overrides else "no",
            )
        )
    print(render_table(
        ("experiment", "title", "sweep axes", "quick mode"),
        rows,
        title="Registered experiments",
    ))
    return 0


def _command_experiment_run(arguments: argparse.Namespace) -> int:
    params = _parse_assignments(arguments.assignments, "--set")
    result = get_experiment(arguments.name).execute(params, quick=arguments.quick)
    if arguments.json:
        print(result.to_json(indent=2))
        return 0
    print(result.render())
    return 0


def _command_experiment_sweep(arguments: argparse.Namespace) -> int:
    params = _parse_assignments(arguments.assignments, "--set")
    spec = ExperimentSpec(arguments.name, params, _parse_axes(arguments.axes))
    definition = get_experiment(arguments.name)
    results = [
        definition.execute(point, quick=arguments.quick) for point in spec.points()
    ]
    if arguments.json:
        print(json.dumps(
            {
                "spec": spec.to_dict(),
                "results": [result.to_dict() for result in results],
            },
            indent=2,
        ))
        return 0
    if arguments.render:
        divider = "\n\n" + "-" * 78 + "\n\n"
        print(divider.join(result.render() for result in results))
    else:
        axes = sorted(spec.sweep)
        print(render_table(
            tuple(axes) + ("elapsed (s)",),
            [
                [result.params[axis] for axis in axes]
                + [round(result.elapsed_seconds, 3)]
                for result in results
            ],
            title=f"Sweep of experiment {arguments.name!r} "
                  f"({len(results)} points)",
        ))
    elapsed = sum(result.elapsed_seconds for result in results)
    print(f"computed {len(results)} points in {elapsed:.3f} s")
    return 0


def _make_engine(arguments: argparse.Namespace) -> Optional[Engine]:
    """Build the engine a subcommand asked for, or report a usage error."""
    if arguments.backend not in available_backends():
        print(f"unknown backend {arguments.backend!r}; available: "
              f"{', '.join(available_backends())}")
        return None
    return Engine(
        backend=arguments.backend,
        curve=arguments.curve,
        modulus=arguments.modulus,
    )


def _command_multiply(arguments: argparse.Namespace) -> int:
    engine = _make_engine(arguments)
    if engine is None:
        return 2
    modulus = engine.default_modulus
    assert modulus is not None
    result = engine.multiply(arguments.a % modulus, arguments.b % modulus)
    if arguments.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(f"backend : {result.backend}")
    print(f"modulus : {result.modulus:#x}")
    print(f"product : {result.value:#x}")
    if result.modeled_cycles is not None:
        print(f"cycle model at {result.bitwidth} bits: {result.modeled_cycles}")
    return 0


def _command_batch(arguments: argparse.Namespace) -> int:
    if arguments.count < 1:
        print(f"--count must be positive, got {arguments.count}")
        return 2
    engine = _make_engine(arguments)
    if engine is None:
        return 2
    modulus = engine.default_modulus
    assert modulus is not None
    rng = random.Random(arguments.seed)
    pairs = [
        (rng.randrange(modulus), rng.randrange(modulus))
        for _ in range(arguments.count)
    ]
    result = engine.multiply_batch(pairs)
    if arguments.json:
        payload = result.as_dict()
        payload["seed"] = arguments.seed
        payload["cache"] = engine.cache_stats.as_dict()
        print(json.dumps(payload, indent=2))
        return 0
    print(f"backend        : {result.backend}")
    print(f"modulus        : {result.modulus:#x}")
    print(f"pairs          : {result.count}")
    print(f"first product  : {result.values[0]:#x}")
    print(f"last product   : {result.values[-1]:#x}")
    if result.modeled_cycles is not None:
        print(f"modeled cycles : {result.modeled_cycles} "
              f"({result.modeled_cycles // result.count} per multiplication)")
    print(f"precomputations: {result.stats.precomputations} during the batch "
          "(per-modulus constants were cached before it started)")
    return 0


def _command_chip(arguments: argparse.Namespace) -> int:
    definition = get_experiment("chip-scaling")
    # Every flag the user set wins, in quick mode too.
    params = {
        name: getattr(arguments, name)
        for name in definition.defaults
        if getattr(arguments, name) is not None
    }
    if "macro_counts" in params:
        text = params["macro_counts"]
        try:
            counts = [int(value, 0) for value in text.split(",") if value]
        except ValueError:
            print(f"--macros expects comma-separated integers, got {text!r}")
            return 2
        if not counts or min(counts) <= 0:
            print(f"--macros needs positive macro counts, got {text!r}")
            return 2
        params["macro_counts"] = counts
    result = definition.execute(params, quick=arguments.quick)
    if arguments.json:
        print(result.to_json(indent=2))
        return 0
    print(result.render())
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    if not arguments.self_test:
        print(
            "only --self-test mode is available: the server is in-process "
            "(see 'repro submit' and repro.service for the API)"
        )
        return 2
    from repro.service import run_self_test

    # Explicit sizing always wins, even over --quick's shrunk traffic.
    traffic = {}
    if arguments.tenants is not None:
        traffic["tenants"] = arguments.tenants
    if arguments.requests is not None:
        traffic["requests"] = arguments.requests
    if arguments.workers < 0:
        print(f"--workers must be >= 0, got {arguments.workers}")
        return 2
    summary = run_self_test(
        quick=arguments.quick,
        backend=arguments.backend,
        curve=arguments.curve,
        workers=arguments.workers,
        **traffic,
    )
    if arguments.json:
        print(json.dumps(summary, indent=2))
        return 0
    latency = summary["latency"]
    executor = summary["executor"]
    print(f"backend           : {summary['backend']}")
    if executor["kind"] == "pool":
        print(f"executor          : pool, {executor['workers']} workers "
              f"({executor['jobs']} jobs, {executor['spilled_jobs']} spilled, "
              f"{executor['worker_restarts']} restarts)")
    else:
        print("executor          : inline (event loop)")
    print(f"tenants           : {summary['tenants']} "
          f"x {summary['requests_per_tenant']} requests")
    print(f"verified requests : {summary['verified_requests']}"
          f" (all products checked against the big-int reference)")
    print(f"throughput        : {summary['requests_per_second']:.1f} req/s, "
          f"{summary['multiplications_per_second']:.1f} mul/s")
    print(f"batching          : {summary['batches']} engine batches, "
          f"mean {summary['mean_batch_size']:.1f} pairs")
    print(f"latency           : p50 {latency['p50_ms']:.3f} ms, "
          f"p95 {latency['p95_ms']:.3f} ms, p99 {latency['p99_ms']:.3f} ms")
    cache = summary["context_cache"]
    print(f"context cache     : {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.3f})")
    return 0


def _command_submit(arguments: argparse.Namespace) -> int:
    import asyncio

    minimum = 2 if arguments.workload == "product-tree" else 1
    if arguments.count < minimum:
        print(f"--count must be at least {minimum} for {arguments.workload}, "
              f"got {arguments.count}")
        return 2
    if arguments.backend not in available_backends():
        print(f"unknown backend {arguments.backend!r}; available: "
              f"{', '.join(available_backends())}")
        return 2
    from repro.service import Client, Server
    from repro.workloads import product_tree_graph

    async def run():
        async with Server(
            backend=arguments.backend,
            curve=arguments.curve,
            modulus=arguments.modulus,
        ) as server:
            modulus = server.engine.default_modulus
            assert modulus is not None
            rng = random.Random(arguments.seed)
            client = Client(server, tenant="cli")
            if arguments.workload == "product-tree":
                leaves = [
                    rng.randrange(1, modulus) for _ in range(arguments.count)
                ]
                graph = product_tree_graph(leaves)
                response = await client.submit_graph(
                    graph, deadline_ms=arguments.deadline_ms
                )
                shape = graph.as_dict()
            else:
                pairs = [
                    (rng.randrange(modulus), rng.randrange(modulus))
                    for _ in range(arguments.count)
                ]
                response = await client.multiply_batch(
                    pairs, deadline_ms=arguments.deadline_ms
                )
                shape = {"pairs": len(pairs)}
            return response, shape, server.metrics_summary()

    response, shape, summary = asyncio.run(run())
    if arguments.json:
        payload = {
            "workload": arguments.workload,
            "shape": shape,
            "kind": response.kind,
            "backend": response.backend,
            "modulus": response.modulus,
            "values": list(response.values),
            "batched_pairs": response.batched_pairs,
            "modeled_cycles": response.modeled_cycles,
            "latency_ms": response.latency_ms,
            "server": summary,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"workload : {arguments.workload} ({shape})")
    print(f"backend  : {response.backend}")
    print(f"modulus  : {response.modulus:#x}")
    if len(response.values) == 1:
        print(f"result   : {response.values[0]:#x}")
    else:
        print(f"results  : {len(response.values)} products, "
              f"first {response.values[0]:#x}")
    if response.modeled_cycles is not None:
        print(f"modeled  : {response.modeled_cycles} hardware cycles")
    print(f"latency  : {response.latency_ms:.3f} ms "
          f"(queued {response.queue_ms:.3f} ms)")
    return 0


def _command_cluster(arguments: argparse.Namespace) -> int:
    handlers = {
        "router": _command_cluster_router,
        "worker": _command_cluster_worker,
        "loadtest": _command_cluster_loadtest,
    }
    return handlers[arguments.cluster_command](arguments)


def _command_cluster_router(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import Router, RouterConfig

    if arguments.backend not in available_backends():
        print(f"unknown backend {arguments.backend!r}; available: "
              f"{', '.join(available_backends())}")
        return 2
    spec = EngineSpec(
        backend=arguments.backend,
        curve=arguments.curve,
        modulus=arguments.modulus,
    )
    config = RouterConfig(
        host=arguments.host,
        port=arguments.port,
        replication=arguments.replication,
        rate_per_tenant=arguments.rate_per_tenant,
    )

    async def run():
        async with Router(spec, config=config) as router:
            print(f"router listening on {config.host}:{router.port} "
                  f"(backend {spec.backend}, replication "
                  f"{config.replication})", flush=True)
            try:
                while True:
                    await asyncio.sleep(3600)
            except asyncio.CancelledError:  # pragma: no cover - signal path
                pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("router stopped")
    return 0


def _command_cluster_worker(arguments: argparse.Namespace) -> int:
    from repro.cluster import run_worker

    if arguments.pool_workers < 0:
        print(f"--pool-workers must be >= 0, got {arguments.pool_workers}")
        return 2
    try:
        run_worker(
            arguments.host,
            arguments.port,
            name=arguments.name,
            pool_workers=arguments.pool_workers,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _command_cluster_loadtest(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import run_loadtest

    if arguments.workers < 1:
        print(f"--workers must be >= 1, got {arguments.workers}")
        return 2
    report = asyncio.run(
        run_loadtest(
            workers=arguments.workers,
            duration_s=arguments.duration,
            rate=arguments.rate,
            seed=arguments.seed,
            kill_worker=arguments.kill_worker,
            quick=arguments.quick,
        )
    )
    healthy = report["lost"] == 0 and report["mismatches"] == 0
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    if arguments.json:
        print(json.dumps(report, indent=2))
        return 0 if healthy else 1
    cluster = report["cluster"]
    latency = report["latency"]
    print(f"fleet             : {report['workers']} workers"
          + (f" (killed pid {report['killed_pid']} mid-run)"
             if report["kill_worker"] else ""))
    print(f"trace             : {report['events']} requests, "
          f"{len(report['tenants'])} tenants, seed {report['seed']}, "
          f"{report['duration_s']:.1f} s")
    print(f"sent / completed  : {report['sent']} / {report['completed']} "
          f"(rejected {report['rejected']}, deadline misses "
          f"{report['deadline_misses']}, failed {report['failed']})")
    print(f"lost / mismatches : {report['lost']} / {report['mismatches']}")
    print(f"latency           : p50 {latency['p50_ms']:.2f} ms, "
          f"p95 {latency['p95_ms']:.2f} ms, p99 {latency['p99_ms']:.2f} ms")
    print(f"placement         : {cluster['redispatches']} re-dispatches, "
          f"{cluster['lost_nodes']} lost nodes, "
          f"{cluster['live_nodes']} nodes live at end")
    print("verdict           : " + ("PASS (nothing lost, every product "
          "bit-identical)" if healthy else "FAIL"))
    return 0 if healthy else 1


def _command_backends(arguments: argparse.Namespace) -> int:
    infos = [get_backend(name).info for name in available_backends()]
    if arguments.json:
        payload = {"backends": [info.as_dict() for info in infos]}
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for info in infos:
        bitwidths = (
            "any"
            if info.supported_bitwidths is None
            else ", ".join(str(bits) for bits in info.supported_bitwidths)
        )
        tier = info.fidelity or "-"
        if info.macros is not None:
            tier += f" x{info.macros}"
        rows.append(
            (
                info.name,
                info.kind,
                tier,
                "yes" if info.has_cycle_model else "no",
                "direct" if info.direct_form else "montgomery",
                bitwidths,
            )
        )
    print(render_table(
        ("backend", "kind", "tier", "cycle model", "result form",
         "native bitwidths"),
        rows,
        title="Engine backends",
    ))
    return 0


def _command_cycles(arguments: argparse.Namespace) -> int:
    bitwidth = arguments.bitwidth
    rows = []
    for key, model in sorted(COMPLEXITY_MODELS.items()):
        rows.append((model.label, model.order, model.cycles(bitwidth)))
    print(render_table(
        ("algorithm / design", "order", f"cycles @ {bitwidth}b"),
        rows,
        title="Cycle models",
    ))
    print("\nregistered engine backends: " + ", ".join(available_backends()))
    return 0


def _command_area(arguments: argparse.Namespace) -> int:
    config = ModSRAMConfig(
        rows=arguments.rows,
        bitwidth=arguments.bitwidth,
        columns=max(arguments.bitwidth, 4),
        technology_nm=arguments.technology,
    )
    model = AreaModel(config)
    breakdown = model.breakdown()
    rows = [
        (name.replace("_mm2", "").replace("_", " "), round(value, 5))
        for name, value in breakdown.as_dict().items()
    ]
    print(render_table(("component", "area (mm^2)"), rows,
                       title=f"ModSRAM area model ({arguments.rows}x{arguments.bitwidth}, "
                             f"{arguments.technology} nm)"))
    print(f"overhead over plain SRAM: {model.overhead_percent():.1f}%")
    return 0


def _command_verify(arguments: argparse.Namespace) -> int:
    bitwidth = arguments.bitwidth
    config = ModSRAMConfig().with_bitwidth(bitwidth)
    checker = EquivalenceChecker(config)
    modulus = ((1 << bitwidth) - 5) | 1
    report = checker.run(modulus, random_cases=arguments.cases)
    print(report.summary())
    return 0 if report.passed else 1


def _command_hdl(arguments: argparse.Namespace) -> int:
    handlers = {
        "emit": _command_hdl_emit,
        "cosim": _command_hdl_cosim,
    }
    return handlers[arguments.hdl_command](arguments)


def _command_hdl_emit(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.hdl import elaborate_macro, emit_design

    config = ModSRAMConfig().with_bitwidth(arguments.bitwidth)
    files = emit_design(elaborate_macro(config))
    out = Path(arguments.out)
    if arguments.check:
        drifted = []
        for name, text in sorted(files.items()):
            path = out / name
            if not path.is_file():
                drifted.append(f"{path}: missing")
            elif path.read_text() != text:
                drifted.append(f"{path}: differs from freshly emitted RTL")
        for line in drifted:
            print(line)
        if drifted:
            print(f"hdl emit --check: {len(drifted)} file(s) drifted; "
                  f"regenerate with: repro hdl emit --out {out}")
            return 1
        print(f"hdl emit --check: {len(files)} file(s) match {out}")
        return 0
    out.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    return 0


def _command_hdl_cosim(arguments: argparse.Namespace) -> int:
    params = {
        name: getattr(arguments, name)
        for name in ("cases", "seed")
        if getattr(arguments, name) is not None
    }
    result = get_experiment("hdl-cosim").execute(params, quick=arguments.quick).result
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.all_match and result.paper_point_ok else 1


def _command_dse(arguments: argparse.Namespace) -> int:
    handlers = {
        "run": _command_dse_run,
        "frontier": _command_dse_frontier,
    }
    return handlers[arguments.dse_command](arguments)


def _command_dse_run(arguments: argparse.Namespace) -> int:
    from repro.dse import load_spec

    # Every flag the user set wins, in quick mode too.
    params = {
        name: getattr(arguments, name)
        for name in ("sample", "workload_ops")
        if getattr(arguments, name) is not None
    }
    if arguments.spec:
        params["spec"] = load_spec(arguments.spec).to_dict()
    result = get_experiment("dse").execute(params, quick=arguments.quick).result
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.frontier else 1


def _command_dse_frontier(arguments: argparse.Namespace) -> int:
    from repro.dse import DseRunResult, pareto_frontier

    try:
        with open(arguments.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read DSE results {arguments.input}: {error}")
    run = DseRunResult.from_dict(data)
    frontier = pareto_frontier([point.metrics() for point in run.points])
    rebuilt = DseRunResult(
        spec=run.spec,
        points=run.points,
        frontier=frontier,
        dominated=len(run.points) - len(frontier),
        elapsed_seconds=run.elapsed_seconds,
    )
    if arguments.json:
        print(
            json.dumps(
                [
                    {
                        "index": member.index,
                        "objectives": dict(member.objectives),
                        "dominates": member.dominates,
                    }
                    for member in frontier
                ],
                indent=2,
            )
        )
    else:
        print(rebuilt.render())
    return 0 if frontier else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "report": _command_report,
        "experiment": _command_experiment,
        "multiply": _command_multiply,
        "batch": _command_batch,
        "chip": _command_chip,
        "serve": _command_serve,
        "submit": _command_submit,
        "cluster": _command_cluster,
        "backends": _command_backends,
        "cycles": _command_cycles,
        "area": _command_area,
        "verify": _command_verify,
        "hdl": _command_hdl,
        "dse": _command_dse,
    }
    try:
        return handlers[arguments.command](arguments)
    except ReproError as error:
        print(f"error: {error}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
