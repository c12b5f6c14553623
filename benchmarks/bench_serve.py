"""Workload-graph scheduling win and async serving throughput, machine-readable.

Three claims of the Workload Graph API + serving layer, measured and
emitted as ``BENCH_serve.json``:

1. **Graph-aware beats flat-stream scheduling** — a flat stream carries no
   dependency information, so the only schedule that is always correct for
   a dependent request is sequential (the ``linearized()`` chain).  The
   graph-aware scheduler sees the real DAG and dispatches ready fronts
   across macros: on a depth-limited workload (2^10-point NTT; batched
   ECDSA signing) at >= 4 macros it must achieve strictly lower makespan
   and strictly higher macro utilization than the dependency-honoring
   flat-stream baseline.

2. **Bit-identical products** — executing an operand-carrying graph
   (a 128-leaf product tree, the batch-inversion kernel) on a 4-macro
   :class:`Chip` graph-aware yields exactly the products of the serial
   chain execution and of the big-int reference, while finishing in a
   fraction of the chain's makespan.

3. **Async serving layer** — the in-process server sustains the quick-mode
   multi-tenant traffic mix with every product verified; its
   throughput/latency metrics land in the JSON for trend tracking.

4. **Sharded pool executor escapes the GIL** — the same deterministic
   multi-modulus workload runs once on the classic
   :class:`~repro.service.executor.InlineExecutor` (one core, however
   many chips we simulate) and once on a 4-worker
   :class:`~repro.service.pool.PoolExecutor`.  Products must be
   bit-identical request by request; on a multi-core runner (>= 4 CPUs,
   e.g. CI) pool throughput must additionally be >= 1.8x inline.

Run as a pytest benchmark (``pytest benchmarks/bench_serve.py``) or
directly (``python benchmarks/bench_serve.py``); both write the JSON next
to the repository root (override with ``BENCH_OUTPUT_SERVE``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from repro.ecc.curves_data import CURVE_SPECS
from repro.experiments import get_experiment
from repro.modsram import Chip, ChipScheduler, ModSRAMConfig
from repro.service import Server, ServerConfig, run_self_test
from repro.workloads import ecdsa_sign_graph, ntt_graph, product_tree_graph

#: Macro counts the scheduling comparison runs at (the claim is >= 4).
MACRO_COUNTS = (4, 8)
#: Minimum graph-over-flat makespan speedup required at 4 macros.
REQUIRED_SPEEDUP = 2.0
#: Pool size of the executor-scaling comparison.
POOL_WORKERS = 4
#: Minimum pool-over-inline serving throughput on a multi-core runner.
REQUIRED_POOL_SPEEDUP = 1.8
#: Scaling traffic: requests x pairs of 254/255/256-bit multiplications
#: on the r4csa-lut backend (heavy enough that compute, not IPC,
#: dominates each shipped batch).
SCALING_REQUESTS = 96
SCALING_PAIRS = 16


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_SERVE")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_serve.json")


def collect_graph_vs_flat() -> dict:
    """Graph-aware versus flat-stream scheduling on depth-limited DAGs."""
    workloads = {
        "ntt-1024": ntt_graph(1024),
        "ecdsa-sign-4x64": ecdsa_sign_graph(64, signatures=4),
    }
    payload = {}
    for name, graph in workloads.items():
        chain = graph.linearized()
        entry = {"graph": graph.as_dict(), "points": []}
        for macros in MACRO_COUNTS:
            scheduler = ChipScheduler(macros)
            aware = scheduler.schedule_graph(graph)
            flat = scheduler.schedule_graph(chain)
            entry["points"].append(
                {
                    "macros": macros,
                    "graph_makespan_cycles": aware.makespan_cycles,
                    "flat_makespan_cycles": flat.makespan_cycles,
                    "graph_utilization": aware.utilization,
                    "flat_utilization": flat.utilization,
                    "graph_lut_reuse_rate": aware.lut_reuse_rate,
                    "critical_path_cycles": aware.critical_path_cycles,
                    "speedup": flat.makespan_cycles / aware.makespan_cycles,
                }
            )
        payload[name] = entry
    return payload


def collect_bit_identical() -> dict:
    """Product-tree execution on a real chip: graph-aware == serial chain."""
    rng = random.Random(0xD5EAF)
    modulus = 65521
    leaves = [rng.randrange(1, modulus) for _ in range(128)]
    graph = product_tree_graph(leaves)

    reference = 1
    for leaf in leaves:
        reference = reference * leaf % modulus

    config = ModSRAMConfig().with_bitwidth(16)
    aware_run = Chip(4, config).run_graph(graph, modulus)
    chain_run = Chip(4, config).run_graph(graph.linearized(), modulus)

    return {
        "workload": "product-tree[128] (batch-inversion kernel)",
        "modulus": modulus,
        "reference_product": reference,
        "graph_results": list(aware_run.results),
        "chain_results": list(chain_run.results),
        "products_identical": aware_run.values == chain_run.values,
        "matches_reference": aware_run.results == (reference,),
        "graph_makespan_cycles": aware_run.schedule.makespan_cycles,
        "chain_makespan_cycles": chain_run.schedule.makespan_cycles,
        "graph_utilization": aware_run.schedule.utilization,
        "chain_utilization": chain_run.schedule.utilization,
    }


def collect_serving() -> dict:
    """Quick-mode async serving traffic: throughput and latency report."""
    params = get_experiment("serving-throughput").resolve_params(
        {"backend": "montgomery"}, quick=True
    )
    return run_self_test(**params)


def _scaling_traffic() -> list:
    """Deterministic multi-modulus request list for the executor race.

    Four moduli so stable hashing spreads home shards (with spill
    balancing the residue), seeded operands so both executors see the
    exact same work.
    """
    moduli = [
        CURVE_SPECS["bn254"].field_modulus,
        CURVE_SPECS["secp256k1"].field_modulus,
        CURVE_SPECS["p256"].field_modulus,
        (1 << 255) - 19,
    ]
    rng = random.Random(0x5EED)
    requests = []
    for index in range(SCALING_REQUESTS):
        modulus = moduli[index % len(moduli)]
        pairs = tuple(
            (rng.randrange(modulus), rng.randrange(modulus))
            for _ in range(SCALING_PAIRS)
        )
        requests.append((modulus, pairs))
    return requests


async def _drive_scaling(server, requests) -> tuple:
    """Submit the traffic concurrently; time only the traffic itself."""
    for modulus in dict.fromkeys(modulus for modulus, _ in requests):
        await server.multiply_batch([(1, 1)], modulus=modulus)  # warm context
    started = time.perf_counter()
    responses = await asyncio.gather(*(
        server.multiply_batch(list(pairs), modulus=modulus)
        for modulus, pairs in requests
    ))
    elapsed = time.perf_counter() - started
    return [list(response.values) for response in responses], elapsed


def collect_executor_scaling() -> dict:
    """Inline vs 4-worker pool on identical traffic: parity + throughput."""
    requests = _scaling_traffic()
    config = ServerConfig(
        max_batch=8 * SCALING_PAIRS,
        max_pending=8192,
        max_pending_per_tenant=8192,
    )

    async def run_inline():
        async with Server(backend="r4csa-lut", config=config) as server:
            return await _drive_scaling(server, requests)

    async def run_pool():
        async with Server(
            backend="r4csa-lut", config=config, workers=POOL_WORKERS
        ) as server:
            values, elapsed = await _drive_scaling(server, requests)
            return values, elapsed, server.executor.describe()

    inline_values, inline_s = asyncio.run(run_inline())
    pool_values, pool_s, pool_rollup = asyncio.run(run_pool())
    multiplications = sum(len(pairs) for _, pairs in requests)
    return {
        "workload": (
            f"{SCALING_REQUESTS} requests x {SCALING_PAIRS} pairs, "
            "4 moduli, r4csa-lut"
        ),
        "requests": SCALING_REQUESTS,
        "multiplications": multiplications,
        "workers": POOL_WORKERS,
        "cpu_count": os.cpu_count(),
        "inline_seconds": inline_s,
        "pool_seconds": pool_s,
        "inline_requests_per_second": SCALING_REQUESTS / inline_s,
        "pool_requests_per_second": SCALING_REQUESTS / pool_s,
        "inline_mul_per_second": multiplications / inline_s,
        "pool_mul_per_second": multiplications / pool_s,
        "speedup": inline_s / pool_s,
        "products_identical": inline_values == pool_values,
        "pool": {
            key: pool_rollup[key]
            for key in (
                "jobs", "pairs", "spilled_jobs", "retried_jobs",
                "worker_restarts", "mean_utilization", "cache",
            )
        },
    }


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    payload = {
        "benchmark": "serve",
        "graph_vs_flat": collect_graph_vs_flat(),
        "bit_identical": collect_bit_identical(),
        "serving": collect_serving(),
        "executor_scaling": collect_executor_scaling(),
    }
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


def test_graph_scheduling_beats_flat_with_identical_products():
    """Acceptance: graph-aware dispatch wins at >= 4 macros, bit-identically."""
    payload = _payload()

    for name, entry in payload["graph_vs_flat"].items():
        for point in entry["points"]:
            macros = point["macros"]
            print(
                f"{name} @ {macros} macros: graph "
                f"{point['graph_makespan_cycles']} cyc "
                f"(util {point['graph_utilization']:.3f}) vs flat "
                f"{point['flat_makespan_cycles']} cyc "
                f"(util {point['flat_utilization']:.3f}) "
                f"=> {point['speedup']:.2f}x"
            )
            assert point["graph_makespan_cycles"] < point["flat_makespan_cycles"], (
                f"{name} at {macros} macros: graph-aware makespan must beat "
                "the flat-stream schedule"
            )
            assert point["graph_utilization"] > point["flat_utilization"], (
                f"{name} at {macros} macros: graph-aware utilization must "
                "beat the flat-stream schedule"
            )
            if macros == 4:
                assert point["speedup"] >= REQUIRED_SPEEDUP, (
                    f"{name}: expected >= {REQUIRED_SPEEDUP}x at 4 macros, "
                    f"got {point['speedup']:.2f}x"
                )

    identical = payload["bit_identical"]
    assert identical["products_identical"], "graph execution changed products"
    assert identical["matches_reference"], "products disagree with big-int"
    assert (
        identical["graph_makespan_cycles"] < identical["chain_makespan_cycles"]
    ), "graph-aware chip execution must finish before the serial chain"

    serving = payload["serving"]
    assert serving["failed_requests"] == 0
    assert serving["verified_requests"] == serving["completed_requests"]
    assert serving["requests_per_second"] > 0
    print(
        f"serving: {serving['requests_per_second']:.0f} req/s, "
        f"p95 {serving['latency']['p95_ms']:.2f} ms, "
        f"mean batch {serving['mean_batch_size']:.1f} pairs"
    )
    print(f"benchmark JSON written to {payload['output']}")


def test_pool_executor_parity_and_scaling():
    """Acceptance: pool serving is bit-identical, and faster on many cores.

    Parity is asserted unconditionally.  The >= 1.8x throughput claim
    holds on the multi-core CI runner; on fewer than 4 CPUs four
    processes cannot beat one, so the speedup is recorded in the JSON but
    not asserted (force the assertion either way with
    ``BENCH_SERVE_REQUIRE_SCALING=1``).
    """
    scaling = _payload()["executor_scaling"]
    print(
        f"executor scaling: inline {scaling['inline_mul_per_second']:.0f} "
        f"mul/s vs pool({scaling['workers']}) "
        f"{scaling['pool_mul_per_second']:.0f} mul/s "
        f"=> {scaling['speedup']:.2f}x on {scaling['cpu_count']} CPUs "
        f"({scaling['pool']['spilled_jobs']} spills, mean utilization "
        f"{scaling['pool']['mean_utilization']:.2f})"
    )
    assert scaling["products_identical"], (
        "pool and inline executors must produce bit-identical products"
    )
    assert scaling["pool"]["worker_restarts"] == 0, (
        "pool workers crashed during the scaling run"
    )
    require = os.environ.get("BENCH_SERVE_REQUIRE_SCALING")
    multicore = (os.cpu_count() or 1) >= POOL_WORKERS
    if require == "1" or (require is None and multicore):
        assert scaling["speedup"] >= REQUIRED_POOL_SPEEDUP, (
            f"expected >= {REQUIRED_POOL_SPEEDUP}x pool-over-inline serving "
            f"throughput at {POOL_WORKERS} workers, got "
            f"{scaling['speedup']:.2f}x"
        )
    else:
        print(
            f"(speedup assertion skipped: {os.cpu_count()} CPU(s) < "
            f"{POOL_WORKERS} workers)"
        )


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
