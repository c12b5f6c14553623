"""Run one workload over several seeds and report each end-to-end
metric's median and quartile spread (IQR / median), the figure a bound
in ``BENCHMARK.json`` has to cover.

    python3 perfbench/spread.py --workload sim-paper --runs 5 [--seconds 20]

Runs are sequential; ``--seconds`` defaults to ``run_seconds`` from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return 1
        lines = completed.stdout.splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failures", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: host_scale={record['host_scale']:.3f} " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if spread < bound / 3 else "  WIDE" if spread < bound else "  OVER"
        )
        print(f"{name:40s} median {median:12.5g}  spread {spread:7.2%}"
              + ("" if bound is None else f"  bound {bound:.0%}") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
