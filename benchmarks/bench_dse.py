"""Design-space exploration: sweep throughput and frontier, machine-readable.

Emits ``BENCH_dse.json`` with three sections:

1. **expansion** — how fast the declarative sweep spec expands into
   validated design points, and that two expansions of the same spec
   are identical.
2. **sweep** — the default 640-point sweep evaluated once in-process
   (:func:`~repro.dse.run_dse`): its seconds and points per second.
   Recorded, not gated.
3. **frontier** — Pareto accounting of the swept space: frontier size,
   dominated-point count, and the objective set.  A sweep whose
   frontier is empty (or is the whole space) means the cost model has
   stopped trading anything off — both are asserted against.

Run as a pytest benchmark (``pytest benchmarks/bench_dse.py``) or
directly (``python benchmarks/bench_dse.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT_DSE``).
"""

from __future__ import annotations

import json
import os
import time

from repro.dse import DEFAULT_OBJECTIVES, default_sweep_spec, run_dse


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_DSE")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_dse.json")


def collect_expansion(spec) -> dict:
    started = time.perf_counter()
    points = spec.expand()
    elapsed = time.perf_counter() - started
    replay = [point.to_params() for point in spec.expand()]
    return {
        "spec": spec.name,
        "points": len(points),
        "expand_seconds": elapsed,
        "points_per_second": len(points) / elapsed if elapsed else 0.0,
        "deterministic": [point.to_params() for point in points] == replay,
    }


def collect_sweep_and_frontier(spec) -> dict:
    run = run_dse(spec)
    return {
        "sweep": {
            "seconds": run.elapsed_seconds,
            "points_per_second": run.points_per_second,
        },
        "frontier": {
            "size": len(run.frontier),
            "dominated": run.dominated,
            "swept_points": len(run.points),
            "objectives": [
                {"metric": o.metric, "maximize": o.maximize}
                for o in DEFAULT_OBJECTIVES
            ],
            "non_empty": bool(run.frontier),
        },
    }


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benchmark() -> dict:
    spec = default_sweep_spec()
    payload = {"benchmark": "dse", "expansion": collect_expansion(spec)}
    payload.update(collect_sweep_and_frontier(spec))
    path = write_payload(payload)
    payload["output"] = path
    return payload


#: One run shared by every test in the module (the sweep is the
#: expensive part; the assertions are cheap).
_PAYLOAD: dict = {}


def _payload() -> dict:
    if not _PAYLOAD:
        _PAYLOAD.update(run_benchmark())
    return _PAYLOAD


def test_expansion_is_deterministic():
    """Acceptance: the spec expands identically twice, and fast."""
    expansion = _payload()["expansion"]
    print(
        f"expansion: {expansion['points']} points in "
        f"{expansion['expand_seconds'] * 1000:.0f} ms "
        f"({expansion['points_per_second']:.0f} points/s)"
    )
    assert expansion["points"] >= 500  # the issue's sweep-size floor
    assert expansion["deterministic"]


def test_frontier_is_a_proper_subset():
    """Acceptance: a non-empty frontier strictly inside the swept space."""
    sweep, frontier = _payload()["sweep"], _payload()["frontier"]
    print(
        f"sweep: {frontier['swept_points']} points in "
        f"{sweep['seconds']:.2f} s ({sweep['points_per_second']:.0f} points/s); "
        f"frontier: {frontier['size']} of {frontier['swept_points']} "
        f"points ({frontier['dominated']} dominated)"
    )
    assert frontier["non_empty"]
    assert 0 < frontier["size"] < frontier["swept_points"]
    assert frontier["size"] + frontier["dominated"] == frontier["swept_points"]


def test_artifact_matches_schema():
    """The emitted JSON validates against tools/check_bench.py."""
    import importlib.util

    payload = _payload()
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "check_bench", os.path.join(repo_root, "tools", "check_bench.py")
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    errors = checker.check_file(payload["output"])
    assert not errors, errors


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
