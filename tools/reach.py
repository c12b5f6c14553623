#!/usr/bin/env python
"""Which functions of ``src/repro`` the kept paths run, and which none does.

A function-level reach tracer, standard library only.  Each kept path
(the report, every experiment, CI's smoke commands, the four perfbench
workloads, the CI-run bench files and the serving contract tests) runs
as its own subprocess with a ``sitecustomize`` hook first on
``PYTHONPATH``, so the processes it spawns (pool shards, fleet nodes)
are traced too.  Through ``sys.setprofile`` and ``threading.setprofile``
the hook records the ``(co_filename, co_firstlineno)`` of every code
object called, and at exit (or on SIGTERM) writes them under a temp name
and renames it, so a SIGKILLed process leaves no partial file.  ``ast``
lists the package's top-level functions and methods, keyed the same way:
a decorated function's first line is its first decorator's.  The
examples run last and are counted on top of the kept paths.

Usage::

    python tools/reach.py           # unreached functions, per-file totals, both
                                    # totals, and per allow-list reason its
                                    # entries and their never-run lines
    python tools/reach.py --json    # the same as one JSON document

A full run takes about two and a half minutes on a 2-vCPU machine.  It
is a gate: it exits 1 when a function that neither the kept paths nor
the examples run is missing from ``tools/reach_allowed.txt``, when a
function listed there runs or no longer exists, or when a traced command
fails, because that command's reach may then be incomplete (a bench
file's timing gate can fail under the profiler's overhead).
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The functions no kept path or example runs, each under a ``## reason``.
ALLOWED = os.path.join(REPO_ROOT, "tools", "reach_allowed.txt")

#: A traced command: a label and the interpreter arguments, run from the root.
Command = Tuple[str, Tuple[str, ...]]

_REPRO = ("-m", "repro")
_PYTEST = ("-m", "pytest", "-q", "-s", "-p", "no:cacheprovider")

#: Experiments not run as text at their defaults: a full serving run and
#: the full DSE sweep are long, and their quick runs cover the same code.
SKIPPED_AT_DEFAULTS = ("serving-throughput", "dse")

#: CI's smoke steps (``.github/workflows/ci.yml``), in order.  The Verilog
#: lint step imports nothing from the package, so it is left out.
CI_SMOKE: Tuple[Tuple[str, ...], ...] = (
    ("report", "--quick"),
    ("experiment", "list"),
    ("experiment", "run", "headline", "--json", "--quick"),
    ("experiment", "run", "chip-scaling", "--quick", "--json"),
    ("experiment", "sweep", "design-point", "--axis", "bitwidth=64,128,256", "--render"),
    ("backends",),
    ("multiply", "0x1234", "0x5678", "--curve", "bn254"),
    ("cycles", "--bitwidth", "256"),
    ("batch", "--count", "8", "--backend", "montgomery", "--json"),
    *(
        ("chip", "--workload", workload, "--macro-counts", "1,4", "--quick")
        for workload in ("ecdsa-sign", "scalar-mult", "ntt", "msm")
    ),
    ("serve", "--quick"),
    ("serve", "--quick", "--backend", "r4csa-lut"),
    ("submit", "--workload", "product-tree", "--count", "8",
     "--backend", "montgomery", "--json"),
    ("experiment", "run", "serving-throughput", "--quick", "--json"),
    ("serve", "--quick", "--workers", "2"),
    ("experiment", "run", "serving-throughput", "--quick", "--set", "workers=2",
     "--json"),
    ("--version",),
    ("cluster", "loadtest", "--quick", "--workers", "2"),
    ("cluster", "loadtest", "--quick", "--workers", "2", "--kill-worker"),
    ("hdl", "emit", "--check"),
    ("hdl", "cosim", "--quick", "--json"),
    ("dse", "run", "--quick", "--json"),
    ("dse", "run", "examples/dse_sweep.json", "--sample", "1"),
    ("experiment", "run", "dse-point", "--set", "fidelity=cycle", "--quick", "--json"),
)

PERFBENCH_WORKLOADS = ("serve-pool", "fleet-rpc", "engine-bulk", "sim-paper")

#: The bench files CI's ``benchmarks`` job runs.
BENCH_FILES = (
    "bench_chip_scaling.py",
    "bench_serve.py",
    "bench_cluster.py",
    "bench_hdl.py",
    "bench_dse.py",
)

#: Serving contracts no command drives: error paths, and the router and
#: worker commands of a multi-host fleet.
CONTRACT_TESTS = (
    "tests/cluster/test_cli_fleet.py::TestRouterAndWorkerCommands",
    "tests/cluster/test_node_failures.py::TestNodeKillRecovery",
    "tests/cluster/test_protocol.py::TestRouterAnswersBadFrames",
    "tests/cluster/test_router_worker.py::TestValidationAndErrors",
    "tests/service/test_pool_failures.py::TestWorkerCrash",
)

_HOOK = '''\
import atexit, json, os, signal, sys, threading

_OUT = os.environ["REACH_OUT"]
_PACKAGE = os.environ["REACH_PACKAGE"]
_NAME = "%d-%s" % (os.getpid(), os.urandom(4).hex())
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    seen = list(_seen)
    resolved = {}
    keys = []
    for filename, line in seen:
        if filename not in resolved:
            resolved[filename] = os.path.realpath(filename)
        path = resolved[filename]
        if path.startswith(_PACKAGE):
            keys.append([path, line])
    temporary = os.path.join(_OUT, _NAME + ".tmp")
    with open(temporary, "w") as handle:
        json.dump(keys, handle)
    os.replace(temporary, os.path.join(_OUT, _NAME + ".json"))


def _on_sigterm(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


atexit.register(_dump)
if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
    signal.signal(signal.SIGTERM, _on_sigterm)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    """A top-level function or method, keyed by its code object's first line."""

    path: str
    line: int
    name: str
    lines: int


@dataclass(frozen=True)
class Outcome:
    """One traced command: its label, exit status and wall time."""

    name: str
    returncode: int
    seconds: float


def functions(package: str) -> List[Function]:
    """Every top-level function and method under ``package``, in file order.

    Abstract methods are left out: no path can run them.
    """
    found: List[Function] = []
    for directory, subdirectories, files in os.walk(package):
        subdirectories.sort()
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(directory, filename))
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node, owner in _definitions(tree):
                if _is_abstract(node):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append(Function(
                    path=path,
                    line=first,
                    name=f"{owner}.{node.name}" if owner else node.name,
                    lines=node.end_lineno - first + 1,
                ))
    return found


def _definitions(tree: ast.Module):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node, ""
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item, node.name


def _is_abstract(node: ast.AST) -> bool:
    return any(
        getattr(decorator, "attr", getattr(decorator, "id", "")) == "abstractmethod"
        for decorator in node.decorator_list
    )


def kept_commands(root: str) -> List[Command]:
    """The kept paths, examples excluded, as ``(label, arguments)`` pairs."""
    commands: List[Command] = [("report", _REPRO + ("report",))]
    commands += [(" ".join(args), _REPRO + args) for args in CI_SMOKE]
    for name in _experiment_names(root):
        quick = ("experiment", "run", name, "--quick", "--json")
        commands.append((" ".join(quick), _REPRO + quick))
        if name not in SKIPPED_AT_DEFAULTS:
            commands.append((f"experiment run {name}", _REPRO + ("experiment", "run", name)))
    for workload in PERFBENCH_WORKLOADS:
        args = ("perfbench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", "3", "--trace", "1")
        commands.append((f"perfbench {workload}", args))
    for bench in BENCH_FILES:
        commands.append((f"pytest {bench}", _PYTEST + (f"benchmarks/{bench}",)))
    commands.append(("contract tests", _PYTEST + ("-m", "") + CONTRACT_TESTS))
    return _unique(commands)


def example_commands(root: str) -> List[Command]:
    """Every script under ``examples/``."""
    scripts = sorted(glob.glob(os.path.join(root, "examples", "*.py")))
    return [(os.path.relpath(s, root), (os.path.relpath(s, root),)) for s in scripts]


def _experiment_names(root: str) -> List[str]:
    listing = subprocess.run(
        [sys.executable, *_REPRO, "experiment", "list", "--json"],
        cwd=root, env=_environment(root), capture_output=True, text=True,
        check=True,
    )
    return [entry["name"] for entry in json.loads(listing.stdout)]


def _unique(commands: Sequence[Command]) -> List[Command]:
    labels: Dict[Tuple[str, ...], str] = {}
    for name, args in commands:
        labels.setdefault(args, name)
    return [(name, args) for args, name in labels.items()]


def _environment(root: str, *first_paths: str) -> Dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join([*first_paths, os.path.join(root, "src")])
    return environment


def trace(
    root: str, package: str, commands: Sequence[Command], log=None
) -> Tuple[Set[Tuple[str, int]], List[Outcome]]:
    """Run ``commands`` from ``root`` under the hook; the keys they reached."""
    outcomes: List[Outcome] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = os.path.join(scratch, "out")
        os.makedirs(out)
        with open(os.path.join(scratch, "sitecustomize.py"), "w") as handle:
            handle.write(_HOOK)
        environment = _environment(root, scratch)
        environment["REACH_OUT"] = out
        environment["REACH_PACKAGE"] = os.path.realpath(package) + os.sep
        for index, (name, args) in enumerate(commands, 1):
            started = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, *args], cwd=root, env=environment,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            outcome = Outcome(name, completed.returncode,
                              round(time.perf_counter() - started, 2))
            outcomes.append(outcome)
            if log is not None:
                status = "ok" if outcome.returncode == 0 else f"exit {outcome.returncode}"
                print(f"[{index}/{len(commands)}] {name}: {status}, {outcome.seconds} s",
                      file=log, flush=True)
                if outcome.returncode != 0:
                    print(completed.stdout[-2000:], file=log, flush=True)
        reached: Set[Tuple[str, int]] = set()
        for record in glob.glob(os.path.join(out, "*.json")):
            with open(record) as handle:
                reached.update((path, line) for path, line in json.load(handle))
    return reached, outcomes


def summarize(
    package: str,
    kept: Set[Tuple[str, int]],
    examples: Set[Tuple[str, int]],
) -> Dict[str, object]:
    """Unreached functions, per-file totals and both overall totals."""
    base = os.path.dirname(os.path.realpath(package))
    unreached = []
    files: Dict[str, Dict[str, int]] = {}
    totals = {"kept": _tally(), "with_examples": _tally()}
    for function in functions(package):
        key = (function.path, function.line)
        in_kept, in_examples = key in kept, key in examples
        relative = os.path.relpath(function.path, base)
        _count(files.setdefault(relative, _tally()), function, in_kept)
        _count(totals["kept"], function, in_kept)
        _count(totals["with_examples"], function, in_kept or in_examples)
        if not in_kept:
            unreached.append({**asdict(function), "path": relative, "examples": in_examples})
    return {"unreached": unreached, "files": files, "totals": totals}


def _tally() -> Dict[str, int]:
    return {"functions": 0, "lines": 0, "unreached_functions": 0, "unreached_lines": 0}


def _count(tally: Dict[str, int], function: Function, reached: bool) -> None:
    tally["functions"] += 1
    tally["lines"] += function.lines
    if not reached:
        tally["unreached_functions"] += 1
        tally["unreached_lines"] += function.lines


def read_allowed(path: str) -> Dict[str, str]:
    """The allow-list: ``path::name`` of each function mapped to its reason.

    A ``## reason`` line opens a group, other ``#`` lines are comments,
    and each other line names one function as :func:`check` keys it.
    """
    allowed: Dict[str, str] = {}
    reason = None
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("## "):
                reason = line[3:]
            elif line and not line.startswith("#"):
                if reason is None:
                    raise ValueError(f"{path}:{number}: {line} is under no reason")
                allowed[line] = reason
    return allowed


def check(
    package: str, summary: Dict[str, object], allowed: Mapping[str, str]
) -> List[str]:
    """Why the gate fails: a never-run function not allowed, or a stale entry."""
    base = os.path.dirname(os.path.realpath(package))
    existing = {
        f"{os.path.relpath(f.path, base)}::{f.name}" for f in functions(package)
    }
    never_run = {
        f"{entry['path']}::{entry['name']}"
        for entry in summary["unreached"]
        if not entry["examples"]
    }
    return (
        [f"never run, not allowed: {key}" for key in sorted(never_run - allowed.keys())]
        + [f"allowed, gone: {key}" for key in sorted(allowed.keys() - existing)]
        + [f"allowed, runs: {key}" for key in sorted((allowed.keys() & existing) - never_run)]
    )


def tally_reasons(
    summary: Dict[str, object], allowed: Mapping[str, str]
) -> List[Dict[str, object]]:
    """Per allow-list reason, in list order: its entries and never-run lines.

    A line counts when its function is run neither by the kept paths nor
    by the examples; an entry that runs or is gone adds no line.
    """
    never_run = {
        f"{entry['path']}::{entry['name']}": entry["lines"]
        for entry in summary["unreached"]
        if not entry["examples"]
    }
    reasons: Dict[str, Dict[str, object]] = {}
    for key, reason in allowed.items():
        tally = reasons.setdefault(reason, {"reason": reason, "entries": 0, "lines": 0})
        tally["entries"] += 1
        tally["lines"] += never_run.get(key, 0)
    return list(reasons.values())


def render(summary: Dict[str, object], outcomes: Sequence[Outcome]) -> str:
    """The summary as text: each unreached function, then the totals."""
    lines = ["Functions no kept path runs ('examples' marks those only examples run)"]
    current = None
    for entry in summary["unreached"]:
        if entry["path"] != current:
            current = entry["path"]
            lines.append(current)
        mark = "  examples" if entry["examples"] else ""
        lines.append(f"  {entry['line']:>5}  {entry['name']}  ({entry['lines']} lines){mark}")
    lines.append("")
    lines.append("Per file, unreached by the kept paths (functions, lines)")
    rows = sorted(
        (item for item in summary["files"].items() if item[1]["unreached_functions"]),
        key=lambda item: (-item[1]["unreached_lines"], item[0]),
    )
    for path, row in rows:
        lines.append(
            f"  {path}: {row['unreached_functions']} of {row['functions']}, "
            f"{row['unreached_lines']} of {row['lines']}"
        )
    lines.append("")
    for scope, label in (("kept", "kept paths"), ("with_examples", "kept paths + examples")):
        total = summary["totals"][scope]
        lines.append(
            f"{label}: {total['unreached_lines']} of {total['lines']} lines never run "
            f"({total['unreached_functions']} of {total['functions']} functions)"
        )
    if summary.get("reasons"):
        lines.append("")
        lines.append("Allow-list, per reason (entries, never-run lines)")
        for tally in summary["reasons"]:
            lines.append(f"  {tally['entries']:>4}  {tally['lines']:>5}  {tally['reason']}")
    failed = [o for o in outcomes if o.returncode != 0]
    for outcome in failed:
        lines.append(f"FAILED: {outcome.name} (exit {outcome.returncode})")
    lines += [f"GATE: {problem}" for problem in summary.get("gate", ())]
    return "\n".join(lines)


def measure(
    root: str,
    package: str,
    kept: Sequence[Command],
    examples: Sequence[Command] = (),
    log=None,
) -> Tuple[Dict[str, object], List[Outcome]]:
    """Trace ``kept`` and then ``examples``; summarize what neither reached."""
    kept_reach, outcomes = trace(root, package, kept, log)
    example_reach, example_outcomes = trace(root, package, examples, log)
    return summarize(package, kept_reach, example_reach), outcomes + example_outcomes


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    package = os.path.join(REPO_ROOT, "src", "repro")
    summary, outcomes = measure(
        REPO_ROOT, package, kept_commands(REPO_ROOT), example_commands(REPO_ROOT),
        log=sys.stderr,
    )
    allowed = read_allowed(ALLOWED)
    summary["gate"] = check(package, summary, allowed)
    summary["reasons"] = tally_reasons(summary, allowed)
    if args.json:
        summary["commands"] = [asdict(outcome) for outcome in outcomes]
        print(json.dumps(summary, indent=2))
    else:
        print(render(summary, outcomes))
    failed = any(outcome.returncode for outcome in outcomes)
    return 1 if failed or summary["gate"] else 0


if __name__ == "__main__":
    sys.exit(main())
