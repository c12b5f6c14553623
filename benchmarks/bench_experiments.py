"""Serial vs parallel vs warm-cache wall time of the quick report.

``report`` runs through the Experiment API, so its sections can run in
parallel and be reused from the content-hash cache instead of being
recomputed one after another.  This benchmark times the three modes on
``report --quick`` and checks that:

* every mode produces byte-identical report text, and
* the warm-cache pass performs zero recomputation (every section is a
  cache hit) and beats the serial cold pass.

Run with ``python -m pytest benchmarks/bench_experiments.py -s``.
"""

from __future__ import annotations

import time

from repro.analysis.report import REPORT_EXPERIMENTS, build_report
from repro.experiments import ExperimentSpec, Runner


def _timed(function):
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start


def test_report_quick_serial_parallel_and_warm_cache(tmp_path):
    cache_dir = str(tmp_path / "experiment-cache")

    cached = Runner(use_cache=True, cache_dir=cache_dir)
    serial, serial_s = _timed(lambda: build_report(quick=True))
    parallel, parallel_s = _timed(
        lambda: build_report(
            quick=True, runner=Runner(parallel=True, use_cache=False)
        )
    )
    cold, cold_s = _timed(lambda: build_report(quick=True, runner=cached))
    warm, warm_s = _timed(lambda: build_report(quick=True, runner=cached))

    assert parallel == serial, "parallel report must be byte-identical"
    assert cold == serial and warm == serial, "cached report must be byte-identical"

    # Zero recomputation on the warm pass: every section is a cache hit.
    warm_runner = Runner(use_cache=True, cache_dir=cache_dir)
    warm_results = warm_runner.run_specs(
        [ExperimentSpec(name) for name in REPORT_EXPERIMENTS], quick=True
    )
    assert all(result.cache_hit for result in warm_results)
    assert warm_s < serial_s, (
        f"warm cache ({warm_s:.3f}s) must beat serial recomputation "
        f"({serial_s:.3f}s)"
    )

    print("\nreport --quick wall time")
    print(f"  serial (no cache)   : {serial_s:8.3f} s")
    print(f"  parallel (no cache) : {parallel_s:8.3f} s")
    print(f"  cold cache          : {cold_s:8.3f} s")
    print(f"  warm cache          : {warm_s:8.3f} s "
          f"({serial_s / max(warm_s, 1e-9):.1f}x vs serial)")
