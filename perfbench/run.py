"""The repository benchmark: run one seeded workload, verify every output,
print every metric.

    python3 perfbench/run.py --workload serve-pool --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for what each metric means on each):

* ``serve-pool``  — in-process ``Server`` over a 2-process pool;
* ``fleet-rpc``   — ``LocalFleet`` of 2 worker nodes over wire-v2 clients;
* ``engine-bulk`` — batched and per-call library work on one ``Engine``;
* ``sim-paper``   — the 256-bit paper configuration on the cycle, RTL and
  chip simulators.

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` measures an untraced pass, then a traced pass on a fresh
system, and prints the per-layer metrics.  Either way the line before the
last holds the self-describing run record (environment, sample counts,
failures by invariant, and with tracing both passes' end-to-end figures
with their difference labelled as tracing overhead).  The last line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means the
run finished; ``correct`` says whether every output verified.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: How long the exit path waits for a child to end before killing it.
REAP_TIMEOUT_S = 10.0


def _die_with_parent() -> None:
    """Have the kernel end this process when the benchmark process ends.

    The serving stacks start their workers with multiprocessing's "spawn",
    which runs this file as ``__mp_main__`` in each worker before its
    target, so a worker ends with the benchmark even when the benchmark
    is stopped before it can join its workers.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def _wait_for(pid: int) -> None:
    """Wait for child ``pid`` to end, ending it after
    :data:`REAP_TIMEOUT_S`."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def _stop_children() -> None:
    """Stop and wait for every process this run started.

    Registered before multiprocessing is imported: exit handlers run
    last-registered first, so this runs after multiprocessing's own exit
    handler has joined its workers and released their semaphores.  What
    is left is multiprocessing's resource tracker, which would otherwise
    end only after this process, on seeing its pipe close.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(REAP_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)
    _wait_for(tracker._pid)
    tracker._fd = tracker._pid = None

WORKLOADS = ("serve-pool", "fleet-rpc", "engine-bulk", "sim-paper")
SERVING = ("serve-pool", "fleet-rpc")

#: The throughput figure tracing overhead is reported on, per workload.
HEADLINE = {
    "serve-pool": "saturated_rps",
    "fleet-rpc": "saturated_rps",
    "engine-bulk": "batch_pairs_per_s",
    "sim-paper": "sim_mults_per_s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload: str):
    if workload in SERVING:
        import serving

        return serving
    if workload == "engine-bulk":
        import engine_bulk

        return engine_bulk
    import sim_paper

    return sim_paper


def _end_to_end(outcome, passed) -> dict:
    return {
        "setup_s": statistics.median(outcome["setup_times"]),
        **passed.end_to_end,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    from harness import (
        END_TO_END_UNITS,
        PER_LAYER_UNITS,
        Calibrator,
        Ledger,
        environment,
        pin_to_one_cpu,
        usable_cpus,
    )

    ledger = Ledger()
    nproc = len(usable_cpus()) or os.cpu_count() or 0
    # Every workload runs on one CPU, worker processes included (they
    # inherit the affinity): the reference that scales each time then
    # runs where the work ran, and the figures measure the work, not how
    # the host schedules more processes than it has CPUs.
    pin_to_one_cpu()
    calibrator = Calibrator()
    outcome = _module(args.workload).run(
        args.workload, args.seed, args.seconds, bool(args.trace), ledger,
        calibrator,
    )
    untraced = outcome["untraced"]
    end_to_end = _end_to_end(outcome, untraced)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(ROOT, args.seed, nproc),
        "system": outcome["info"],
        "setup_times_s": outcome["setup_times"],
        "samples": untraced.samples,
        "host_scale": calibrator.scale,
        "calibration_samples": calibrator.count,
        "untraced": end_to_end,
        "extras": untraced.extras,
        "ledger": ledger.summary(),
    }
    if args.trace:
        traced = outcome["traced"]
        traced_end_to_end = _end_to_end(outcome, traced)
        record["traced"] = traced_end_to_end
        record["traced_samples"] = traced.samples
        record["tracing_overhead"] = {
            name: traced_end_to_end[name] / value - 1.0
            for name, value in end_to_end.items()
            if value and name not in ("setup_s", "peak_rss_mb")
        }
        headline = HEADLINE[args.workload]
        layers = {name: 0.0 for name in PER_LAYER_UNITS}
        layers.update(traced.layers)
        layers["error_rate"] = ledger.error_rate
        layers["latency_p95_ms"] = traced.end_to_end["latency_p95_ms"]
        layers["trace.overhead_pct"] = (
            100.0 * (1.0 - traced.end_to_end[headline] / untraced.end_to_end[headline])
            if untraced.end_to_end[headline] else 0.0
        )
        values, units = layers, PER_LAYER_UNITS
    else:
        values, units = end_to_end, END_TO_END_UNITS
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    if ledger.failed:
        print(f"perfbench: {ledger.failed} failures: {ledger.details}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    atexit.register(_stop_children)
    sys.exit(main())
elif __name__ == "__mp_main__":
    _die_with_parent()
