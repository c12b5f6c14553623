"""HDL co-simulation tier: agreement and cost, machine-readable.

Emits ``BENCH_hdl.json`` with three sections:

1. **agreement** — the cycle-agreement table across a geometry sweep:
   for each bitwidth the same operand stream runs through the
   event-driven RTL simulator, the cycle-accurate tier and the
   analytical model; products must be bit-identical and the per-phase
   cycle reports equal field by field (asserted unconditionally — this
   is the whole point of the tier).
2. **paper_point** — the paper's 256-bit ``n/2``-schedule design point
   measured from the RTL; the main loop must take exactly 767 cycles.
3. **simulator** — the price of the machine-checked cycle model:
   aggregate simulator events per second and the wall-clock slowdown
   against the cycle tier.  The events/s floor asserted here is
   deliberately loose (pure-Python event wheel on a shared runner);
   the artifact records the real number.

Run as a pytest benchmark (``pytest benchmarks/bench_hdl.py``) or
directly (``python benchmarks/bench_hdl.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT_HDL``).
"""

from __future__ import annotations

import json
import os

from repro.analysis.hdl_cosim import reproduce_hdl_cosim
from repro.modsram.config import PAPER_CONFIG

#: The geometry sweep of the agreement table.
AGREEMENT_BITWIDTHS = (16, 32, 64)
#: Operand pairs per bitwidth (corners + random).
AGREEMENT_CASES = 4
#: Operand stream seed (the artifact is reproducible modulo timing).
AGREEMENT_SEED = 2024
#: Floor on aggregate simulator throughput (events/second).  The
#: measured rate is 0.77-1.37M on a 2-vCPU VM; 50k leaves a slow or
#: loaded CI runner 15-27x of room, and a slowdown beyond that fails.
REQUIRED_EVENTS_PER_SECOND = 50_000.0


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_HDL")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_hdl.json")


def collect_cosim() -> dict:
    """One co-simulation sweep, reshaped into the artifact sections."""
    result = reproduce_hdl_cosim(
        bitwidths=AGREEMENT_BITWIDTHS,
        cases=AGREEMENT_CASES,
        seed=AGREEMENT_SEED,
    )
    rows = []
    total_events = 0
    total_hdl_seconds = 0.0
    total_cycle_seconds = 0.0
    for row in result.rows:
        entry = row.to_dict()
        entry["slowdown"] = row.slowdown
        rows.append(entry)
        total_events += row.sim_events
        total_hdl_seconds += row.hdl_seconds
        total_cycle_seconds += row.cycle_seconds
    return {
        "agreement": {
            "seed": result.seed,
            "all_match": result.all_match,
            "rows": rows,
        },
        "paper_point": {
            "bitwidth": PAPER_CONFIG.bitwidth,
            "iteration_cycles": result.paper_iteration_cycles,
            "expected_iteration_cycles": PAPER_CONFIG.expected_iteration_cycles,
            "ok": result.paper_point_ok,
        },
        "simulator": {
            "sim_events": total_events,
            "events_per_second": (
                total_events / total_hdl_seconds if total_hdl_seconds else 0.0
            ),
            "slowdown_vs_cycle_tier": (
                total_hdl_seconds / total_cycle_seconds
                if total_cycle_seconds
                else 0.0
            ),
            "required_events_per_second": REQUIRED_EVENTS_PER_SECOND,
        },
    }


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benchmark() -> dict:
    payload = {"benchmark": "hdl"}
    payload.update(collect_cosim())
    path = write_payload(payload)
    payload["output"] = path
    return payload


#: One run shared by every test in the module (the collection is the
#: expensive part; the assertions are cheap).
_PAYLOAD: dict = {}


def _payload() -> dict:
    if not _PAYLOAD:
        _PAYLOAD.update(run_benchmark())
    return _PAYLOAD


def test_cycle_agreement():
    """Acceptance: RTL agrees with the modeled tiers on every geometry."""
    agreement = _payload()["agreement"]
    for row in agreement["rows"]:
        print(
            f"{row['bitwidth']}b: {row['cases']} cases, "
            f"{row['iteration_cycles']} loop cycles, "
            f"products {'ok' if row['products_match'] else 'MISMATCH'}, "
            f"cycle report {'ok' if row['cycles_match'] else 'MISMATCH'}"
        )
        assert row["products_match"], (
            f"{row['bitwidth']}-bit products diverged from the oracle"
        )
        assert row["cycles_match"], (
            f"{row['bitwidth']}-bit cycle reports diverged across tiers"
        )
    assert agreement["all_match"]


def test_paper_point():
    """Acceptance: the RTL reproduces the paper's 767 main-loop cycles."""
    point = _payload()["paper_point"]
    print(
        f"paper point: {point['bitwidth']}b measured "
        f"{point['iteration_cycles']} loop cycles "
        f"(expected {point['expected_iteration_cycles']})"
    )
    assert point["iteration_cycles"] == point["expected_iteration_cycles"]
    assert point["ok"]


def test_simulator_throughput():
    """Acceptance: the event wheel clears the (loose) events/s floor."""
    simulator = _payload()["simulator"]
    print(
        f"simulator: {simulator['events_per_second']:.0f} events/s, "
        f"{simulator['slowdown_vs_cycle_tier']:.1f}x slower than the "
        f"cycle tier over {simulator['sim_events']} events"
    )
    assert simulator["events_per_second"] >= REQUIRED_EVENTS_PER_SECOND, (
        f"expected >= {REQUIRED_EVENTS_PER_SECOND:.0f} events/s, got "
        f"{simulator['events_per_second']:.0f}"
    )


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
