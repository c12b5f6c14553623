#!/usr/bin/env python
"""Schema-validate the ``BENCH_*.json`` benchmark artifacts.

Every benchmark in ``benchmarks/`` emits a machine-readable JSON
artifact whose fields are documented in ``docs/artifacts.md``.  Those
artifacts are consumed downstream (CI uploads them, the docs quote
them), so silent schema drift — a renamed key, a section dropped by a
refactor — must fail fast.  This tool is that gate: the CI benchmarks
job runs it (with explicit paths) against the freshly-written
artifacts before uploading them.

Usage::

    python tools/check_bench.py                 # every BENCH_*.json in repo root
    python tools/check_bench.py BENCH_foo.json  # explicit paths

Exit status 0 when every artifact matches its schema, 1 otherwise.

The schema language is deliberately tiny (this file is the single
source of truth, next to the prose in ``docs/artifacts.md``):

* a ``dict`` spec requires those keys, each validated recursively
  (extra keys are allowed — benchmarks may grow fields);
* a ``[spec]`` list requires a non-empty list whose elements all match;
* a type or tuple of types is an ``isinstance`` check;
* ``Value(x)`` requires the exact value ``x``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Value:
    """Spec leaf requiring one exact value (e.g. the benchmark name)."""

    def __init__(self, expected: Any) -> None:
        self.expected = expected


NUMBER = (int, float)

#: Router-observed latency percentiles (shared by several artifacts).
LATENCY = {
    "count": NUMBER,
    "mean_ms": NUMBER,
    "p50_ms": NUMBER,
    "p95_ms": NUMBER,
    "p99_ms": NUMBER,
}

#: The cluster loadtest report (``repro cluster loadtest --json``,
#: ``run_loadtest`` and the kill_recovery benchmark section).
LOADTEST_REPORT = {
    "sent": int,
    "completed": int,
    "rejected": int,
    "deadline_misses": int,
    "failed": int,
    "lost": int,
    "mismatches": int,
    "latency": LATENCY,
    "per_tenant_completed": dict,
    "tenants": list,
    "events": int,
    "seed": int,
    "duration_s": NUMBER,
    "cluster": {
        "redispatches": int,
        "lost_nodes": int,
        "live_nodes": int,
        "rate_limited": int,
        "protocol_errors": int,
    },
    "workers": int,
    "kill_worker": bool,
}

SCHEMAS = {
    "BENCH_serve.json": {
        "benchmark": Value("serve"),
        "graph_vs_flat": dict,
        "bit_identical": {"graph_results": list, "chain_results": list},
        "serving": {
            "completed_requests": int,
            "requests_per_second": NUMBER,
            "latency": dict,
            "context_cache": dict,
            "executor": dict,
        },
        "executor_scaling": {
            "inline_seconds": NUMBER,
            "pool_seconds": NUMBER,
            "speedup": NUMBER,
            "products_identical": Value(True),
            "cpu_count": int,
            "workers": int,
        },
    },
    "BENCH_chip_scaling.json": {
        "benchmark": Value("chip_scaling"),
        "fidelity": {
            "sign_multiplications": int,
            "analytical_sign_seconds": NUMBER,
            "cycle_sign_seconds": NUMBER,
            "per_multiply_speedup": NUMBER,
            "full_sign_speedup": NUMBER,
            "required_speedup": NUMBER,
        },
        "chip_scaling": dict,
    },
    "BENCH_cluster.json": {
        "benchmark": Value("cluster"),
        "node_scaling": {
            "requests": int,
            "multiplications": int,
            "passes": int,
            "points": [
                {
                    "pass": int,
                    "nodes": int,
                    "seconds": NUMBER,
                    "requests_per_second": NUMBER,
                    "mul_per_second": NUMBER,
                    "redispatches": int,
                    "per_node_dispatched": dict,
                }
            ],
            "pair_speedups": [NUMBER],
            "speedup": NUMBER,
            "products_identical_across_fleets": Value(True),
        },
        "bit_identical": {"products_identical": Value(True)},
        "kill_recovery": LOADTEST_REPORT,
    },
    "BENCH_hdl.json": {
        "benchmark": Value("hdl"),
        "agreement": {
            "seed": int,
            "all_match": Value(True),
            "rows": [
                {
                    "bitwidth": int,
                    "cases": int,
                    "iterations": int,
                    "iteration_cycles": int,
                    "products_match": Value(True),
                    "cycles_match": Value(True),
                    "sim_events": int,
                    "events_per_second": NUMBER,
                    "hdl_seconds": NUMBER,
                    "cycle_seconds": NUMBER,
                    "slowdown": NUMBER,
                }
            ],
        },
        "paper_point": {
            "bitwidth": int,
            "iteration_cycles": int,
            "expected_iteration_cycles": int,
            "ok": Value(True),
        },
        "simulator": {
            "sim_events": int,
            "events_per_second": NUMBER,
            "slowdown_vs_cycle_tier": NUMBER,
            "required_events_per_second": NUMBER,
        },
    },
    "BENCH_dse.json": {
        "benchmark": Value("dse"),
        "expansion": {
            "spec": str,
            "points": int,
            "expand_seconds": NUMBER,
            "points_per_second": NUMBER,
            "deterministic": Value(True),
        },
        "sweep": {
            "seconds": NUMBER,
            "points_per_second": NUMBER,
        },
        "frontier": {
            "size": int,
            "dominated": int,
            "swept_points": int,
            "objectives": [{"metric": str, "maximize": bool}],
            "non_empty": Value(True),
        },
    },
}


def _validate(spec: Any, value: Any, path: str, errors: List[str]) -> None:
    if isinstance(spec, Value):
        if value != spec.expected:
            errors.append(f"{path}: expected {spec.expected!r}, got {value!r}")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        for key, sub in spec.items():
            if key not in value:
                errors.append(f"{path}.{key}: missing")
            else:
                _validate(sub, value[key], f"{path}.{key}", errors)
    elif isinstance(spec, list):
        if not isinstance(value, list):
            errors.append(f"{path}: expected array, got {type(value).__name__}")
            return
        if not value:
            errors.append(f"{path}: expected a non-empty array")
            return
        for index, item in enumerate(value):
            _validate(spec[0], item, f"{path}[{index}]", errors)
    else:  # a type or tuple of types
        if isinstance(value, bool) and spec in (int, NUMBER):
            errors.append(f"{path}: expected number, got bool")
        elif not isinstance(value, spec):
            expected = getattr(spec, "__name__", str(spec))
            errors.append(
                f"{path}: expected {expected}, got {type(value).__name__}"
            )


def check_file(path: str) -> List[str]:
    """Validate one artifact; returns the (possibly empty) error list."""
    name = os.path.basename(path)
    schema = SCHEMAS.get(name)
    if schema is None:
        return [
            f"{name}: no schema registered (known: {sorted(SCHEMAS)}); "
            "add one to tools/check_bench.py and document the fields in "
            "docs/artifacts.md"
        ]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    errors: List[str] = []
    _validate(schema, payload, name, errors)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help="artifact files to validate (default: BENCH_*.json in the "
        "repository root)",
    )
    arguments = parser.parse_args(argv)
    paths = arguments.paths or sorted(
        glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    )
    if not paths:
        print("no BENCH_*.json artifacts found")
        return 1
    failed = False
    for path in paths:
        errors = check_file(path)
        if errors:
            failed = True
            for error in errors:
                print(f"FAIL {error}")
        else:
            print(f"ok   {os.path.basename(path)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
