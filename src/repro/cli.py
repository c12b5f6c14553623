"""Command-line interface for the ModSRAM reproduction.

``repro`` (also ``python -m repro``) reaches every subsystem from the
shell; ``docs/reference/cli.md``, generated from :func:`build_parser`,
lists each subcommand and option.

The exhibit shortcuts ``chip``, ``serve``, ``hdl cosim`` and ``dse run``
are ``repro experiment run`` for ``chip-scaling``, ``serving-throughput``,
``hdl-cosim`` and ``dse``: each flag is one of the experiment's parameters
(``--macro-counts`` sets ``macro_counts``), and every value, from a flag,
``--set`` or ``--axis``, is read as the type of the parameter's declared
default.  Each subcommand imports its layer when it runs, so ``repro
--version`` and ``repro backends`` load no exhibit.

Exit status: 0 when the command succeeds; 1 on a library error or a
failed verdict (a headline claim that does not hold, tiers that disagree,
an empty DSE frontier); 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


class UsageError(ReproError):
    """A malformed command line; :func:`main` prints it and returns 2."""


def _parse_int(text: str) -> int:
    return int(text, 0)


def _read(text: str, default: Any) -> Any:
    """``text`` as the type of ``default``; ValueError when it is not one.

    A list takes ``V1,V2,...`` (brackets optional; empty for ``[]``), an
    integer a decimal or ``0x`` value and a string the text itself.  A
    parameter declared ``None`` takes JSON, then an integer, then the text.
    """
    if isinstance(default, list):
        items = text.strip().removeprefix("[").removesuffix("]")
        element = default[0] if default else None
        if not items.strip():
            return []
        return [_read(item.strip(), element) for item in items.split(",")]
    if isinstance(default, int):
        return int(text, 0)
    if isinstance(default, str):
        return text
    for read in (json.loads, _parse_int):
        try:
            return read(text)
        except ValueError:
            pass
    return text


def _parse_value(option: str, text: str, default: Any) -> Any:
    """One command-line value of a parameter whose default is ``default``."""
    try:
        return _read(text, default)
    except ValueError:
        kind = "comma-separated integers" if isinstance(default, list) else "an integer"
        raise UsageError(f"{option} expects {kind}, got {text!r}") from None


def _parse_assignments(
    pairs: Optional[List[str]], defaults: Mapping[str, Any]
) -> Dict[str, Any]:
    """``KEY=VALUE`` strings into parameters, each read as its declared type."""
    params = {}
    for pair in pairs or []:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(f"--set expects KEY=VALUE, got {pair!r}")
        params[key] = _parse_value(f"--set {key}", value, defaults.get(key))
    return params


def _parse_axes(
    pairs: Optional[List[str]], defaults: Mapping[str, Any]
) -> Dict[str, List[Any]]:
    """``KEY=V1,V2,...`` strings into sweep axes, one value per comma."""
    axes = {}
    for pair in pairs or []:
        key, separator, values = pair.partition("=")
        if not separator or not key or not values:
            raise ReproError(
                f"--axis expects KEY=VALUE[,VALUE...], got {pair!r}"
            )
        axes[key] = [
            _parse_value(f"--axis {key}", value, defaults.get(key))
            for value in values.split(",")
        ]
    return axes


def _add_experiment_flags(
    parser: argparse.ArgumentParser, experiment: str, skip: tuple = ()
) -> None:
    """Make ``parser`` a shortcut of ``repro experiment run experiment``.

    Each declared parameter (except ``skip``) becomes a ``--name`` flag; a
    flag left unset keeps the parameter's default, or its quick override
    under ``--quick``.
    """
    from repro.experiments import get_experiment

    definition = get_experiment(experiment)
    for name, default in definition.defaults.items():
        if name in skip:
            continue
        quick = ""
        if name in definition.quick_overrides:
            quick = f"; {definition.quick_overrides[name]!r} under --quick"
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, metavar=name.upper(),
            help=f"{experiment} parameter {name} (default {default!r}{quick})",
        )
    _add_run_flags(parser)
    parser.set_defaults(handler=_command_shortcut, experiment=experiment)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """``--quick`` and ``--json`` of every command that runs an experiment."""
    parser.add_argument(
        "--quick", action="store_true",
        help="apply the experiment's quick overrides to every parameter left unset",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the structured result as JSON"
    )


def _add_engine_flags(parser: argparse.ArgumentParser, backend: str) -> None:
    """``--backend``, ``--curve`` and ``--modulus`` of an engine subcommand."""
    parser.add_argument(
        "--backend", default=backend,
        help="engine backend (see 'repro backends' for the list)",
    )
    parser.add_argument(
        "--curve", default="bn254",
        help="use this named curve's base-field prime when --modulus is not given",
    )
    parser.add_argument("--modulus", type=_parse_int, default=None, help="modulus p")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__
    from repro.engine import EngineSpec

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
    report.set_defaults(handler=_command_report)

    experiment = subparsers.add_parser(
        "experiment",
        help="declarative experiment API: list, run or sweep any table/figure",
    )
    experiment_commands = experiment.add_subparsers(required=True)

    experiment_list = experiment_commands.add_parser(
        "list", help="every registered experiment with its parameters"
    )
    experiment_list.add_argument(
        "--json", action="store_true", help="emit the experiment metadata as JSON"
    )
    experiment_list.set_defaults(handler=_command_experiment_list)

    experiment_run = experiment_commands.add_parser(
        "run", help="run one experiment and print its result"
    )
    experiment_run.set_defaults(handler=_command_experiment_run)
    experiment_sweep = experiment_commands.add_parser(
        "sweep", help="run a cartesian parameter sweep of one experiment"
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
        "--render",
        action="store_true",
        help="print every point's full text view instead of the summary table",
    )
    experiment_sweep.set_defaults(handler=_command_experiment_sweep)
    for command in (experiment_run, experiment_sweep):
        command.add_argument("name", help="experiment name (see 'experiment list')")
        command.add_argument(
            "--set",
            dest="assignments",
            action="append",
            metavar="KEY=VALUE",
            help="set one parameter (repeatable)",
        )
        _add_run_flags(command)

    multiply = subparsers.add_parser("multiply", help="one modular multiplication")
    multiply.add_argument("a", type=_parse_int, help="multiplier (decimal or 0x...)")
    multiply.add_argument("b", type=_parse_int, help="multiplicand")
    _add_engine_flags(multiply, "r4csa-lut")
    multiply.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    multiply.set_defaults(handler=_command_multiply)

    batch = subparsers.add_parser(
        "batch", help="batched multiplication through the engine's context cache"
    )
    batch.add_argument(
        "--count", type=int, default=256, help="number of operand pairs"
    )
    _add_engine_flags(batch, "r4csa-lut")
    batch.add_argument(
        "--seed", type=int, default=2024, help="seed for the random operand pairs"
    )
    batch.add_argument(
        "--json", action="store_true", help="emit the batch result as JSON"
    )
    batch.set_defaults(handler=_command_batch)

    chip = subparsers.add_parser(
        "chip",
        help="multi-macro chip scale-out of one workload (the chip-scaling "
             "experiment)",
    )
    _add_experiment_flags(chip, "chip-scaling")

    serve = subparsers.add_parser(
        "serve",
        help="verified multi-tenant traffic through an in-process server "
             "(the serving-throughput experiment)",
    )
    _add_experiment_flags(serve, "serving-throughput")

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
    _add_engine_flags(submit, EngineSpec.backend)
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
    submit.set_defaults(handler=_command_submit)

    cluster = subparsers.add_parser(
        "cluster",
        help="the multi-node serving fleet: router, worker nodes, load tests",
    )
    cluster_commands = cluster.add_subparsers(required=True)

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
        "--curve", default=None, help="default curve of the fleet's engine spec"
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
    cluster_router.set_defaults(handler=_command_cluster_router)

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
    cluster_worker.set_defaults(handler=_command_cluster_worker)

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
    cluster_loadtest.set_defaults(handler=_command_cluster_loadtest)

    backends = subparsers.add_parser(
        "backends", help="capability matrix of every registered engine backend"
    )
    backends.add_argument(
        "--json", action="store_true", help="emit the backend metadata as JSON"
    )
    backends.set_defaults(handler=_command_backends)

    cycles = subparsers.add_parser("cycles", help="cycle models at a bitwidth")
    cycles.add_argument("--bitwidth", type=int, default=256)
    cycles.set_defaults(handler=_command_cycles)

    hdl = subparsers.add_parser(
        "hdl",
        help="the RTL tier: emit the macro Verilog, run the co-simulation",
    )
    hdl_commands = hdl.add_subparsers(required=True)

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
    hdl_emit.set_defaults(handler=_command_hdl_emit)

    hdl_cosim = hdl_commands.add_parser(
        "cosim",
        help="event-driven RTL simulation vs the cycle and analytical tiers "
             "(the hdl-cosim experiment)",
    )
    _add_experiment_flags(hdl_cosim, "hdl-cosim")

    dse = subparsers.add_parser(
        "dse",
        help="declarative design-space exploration with Pareto frontiers",
    )
    dse_commands = dse.add_subparsers(required=True)

    dse_run = dse_commands.add_parser(
        "run",
        help="expand a sweep spec into design points, evaluate them "
             "and print the throughput/energy/area Pareto frontier "
             "(the dse experiment)",
    )
    dse_run.add_argument(
        "spec_file", nargs="?", default=None, metavar="SPEC",
        help="sweep-spec file (JSON, or YAML when PyYAML is installed) for "
             "the spec parameter; default: the built-in 640-point grid",
    )
    _add_experiment_flags(dse_run, "dse", skip=("spec",))
    dse_run.set_defaults(handler=_command_dse_run)
    return parser


def _command_report(arguments: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    print(build_report(quick=arguments.quick))
    return 0


def _command_experiment_list(arguments: argparse.Namespace) -> int:
    from repro.experiments import available_experiments, get_experiment
    from repro.tables import render_table

    definitions = [get_experiment(name) for name in available_experiments()]
    if arguments.json:
        print(json.dumps([d.describe() for d in definitions], indent=2))
        return 0
    rows = [
        (d.name, d.title, ", ".join(d.sweep_axes) or "-",
         "yes" if d.quick_overrides else "no")
        for d in definitions
    ]
    print(render_table(
        ("experiment", "title", "sweep axes", "quick mode"),
        rows,
        title="Registered experiments",
    ))
    return 0


def _report(result, as_json: bool) -> int:
    """Print one experiment result; 1 when it carries a failed verdict."""
    print(result.to_json(indent=2) if as_json else result.render())
    return 0 if result.passed else 1


def _command_experiment_run(arguments: argparse.Namespace) -> int:
    from repro.experiments import get_experiment

    definition = get_experiment(arguments.name)
    params = _parse_assignments(arguments.assignments, definition.defaults)
    return _report(definition.execute(params, quick=arguments.quick), arguments.json)


def _shortcut_result(arguments: argparse.Namespace, **params: Any):
    """Run a shortcut's experiment with every flag that was set."""
    from repro.experiments import get_experiment

    definition = get_experiment(arguments.experiment)
    for name, default in definition.defaults.items():
        text = getattr(arguments, name, None)
        if text is not None:
            option = "--" + name.replace("_", "-")
            params[name] = _parse_value(option, text, default)
    return definition.execute(params, quick=arguments.quick)


def _command_shortcut(arguments: argparse.Namespace) -> int:
    return _report(_shortcut_result(arguments), arguments.json)


def _command_experiment_sweep(arguments: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSpec, get_experiment
    from repro.tables import render_table

    definition = get_experiment(arguments.name)
    spec = ExperimentSpec(
        arguments.name,
        _parse_assignments(arguments.assignments, definition.defaults),
        _parse_axes(arguments.axes, definition.defaults),
    )
    results = [
        definition.execute(point, quick=arguments.quick) for point in spec.points()
    ]
    status = 0 if all(result.passed for result in results) else 1
    if arguments.json:
        print(json.dumps(
            {
                "spec": spec.to_dict(),
                "results": [result.to_dict() for result in results],
            },
            indent=2,
        ))
        return status
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
    return status


def _check_backend(name: str) -> None:
    """Reject a backend the engine registry does not know (a usage error)."""
    from repro.engine import available_backends

    if name not in available_backends():
        raise UsageError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )


def _make_engine(arguments: argparse.Namespace):
    """Build the engine a subcommand asked for."""
    from repro.engine import Engine

    _check_backend(arguments.backend)
    return Engine(
        backend=arguments.backend,
        curve=arguments.curve,
        modulus=arguments.modulus,
    )


def _command_multiply(arguments: argparse.Namespace) -> int:
    engine = _make_engine(arguments)
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
        raise UsageError(f"--count must be positive, got {arguments.count}")
    engine = _make_engine(arguments)
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


def _command_submit(arguments: argparse.Namespace) -> int:
    import asyncio

    minimum = 2 if arguments.workload == "product-tree" else 1
    if arguments.count < minimum:
        raise UsageError(
            f"--count must be at least {minimum} for {arguments.workload}, "
            f"got {arguments.count}"
        )
    _check_backend(arguments.backend)
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


def _command_cluster_router(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import Router, RouterConfig
    from repro.engine import EngineSpec

    _check_backend(arguments.backend)
    spec = EngineSpec(
        backend=arguments.backend,
        curve=arguments.curve,
        modulus=arguments.modulus,
    )
    spec.build()  # a spec no worker could build fails here, once
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
            while True:
                await asyncio.sleep(3600)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("router stopped")
    return 0


def _command_cluster_worker(arguments: argparse.Namespace) -> int:
    from repro.cluster import run_worker

    try:
        run_worker(arguments.host, arguments.port, name=arguments.name)
    except KeyboardInterrupt:
        pass
    return 0


def _command_cluster_loadtest(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import run_loadtest

    if arguments.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {arguments.workers}")
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
    from repro.engine import available_backends, get_backend
    from repro.tables import render_table

    infos = [get_backend(name).info for name in available_backends()]
    if arguments.json:
        payload = {"backends": [info.as_dict() for info in infos]}
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for info in infos:
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
            )
        )
    print(render_table(
        ("backend", "kind", "tier", "cycle model", "result form"),
        rows,
        title="Engine backends",
    ))
    return 0


def _command_cycles(arguments: argparse.Namespace) -> int:
    from repro.core.complexity import COMPLEXITY_MODELS
    from repro.engine import available_backends
    from repro.tables import render_table

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


def _command_hdl_emit(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.hdl import elaborate_macro, emit_design
    from repro.modsram.config import ModSRAMConfig

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


def _command_dse_run(arguments: argparse.Namespace) -> int:
    from repro.dse import load_spec

    params = {}
    if arguments.spec_file:
        params["spec"] = load_spec(arguments.spec_file).to_dict()
    return _report(_shortcut_result(arguments, **params), arguments.json)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    try:
        arguments = build_parser().parse_args(argv)
        status = arguments.handler(arguments)
        sys.stdout.flush()
        return status
    except UsageError as error:
        print(f"error: {error}")
        return 2
    except ReproError as error:
        print(f"error: {error}")
        return 1
    except BrokenPipeError:
        # The reader closed stdout (``repro ... | head``): point it at
        # devnull so the flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
