"""Multi-node serving fleet claims, measured and machine-readable.

Three claims of the ``repro.cluster`` subsystem, emitted as
``BENCH_cluster.json``:

1. **Node scaling** — the same saturating multi-modulus workload runs
   against a 1-node and a 2-node local fleet (real worker processes,
   sockets and all), in alternating passes, nine per fleet size.
   Products must be bit-identical fleet-to-fleet; on a multi-core runner
   (>= 2 CPUs, e.g. CI) the median of the per-pair 2-node-over-1-node
   throughput ratios must additionally reach 1.5x (force the assertion
   either way with ``BENCH_CLUSTER_REQUIRE_SCALING=1``).

2. **Bit-identical to in-process serving** — the identical request list
   through the fleet and through a plain inline
   :class:`~repro.service.server.Server` yields exactly the same
   products: the cluster is a throughput amplifier, never an arithmetic
   variable.

3. **Zero lost requests across a worker kill** — the trace-driven load
   generator replays a seeded diurnal/bursty multi-tenant mix while one
   worker is SIGKILLed mid-run; every request must still complete
   (``lost == 0``) with every product verified (``mismatches == 0``).
   This leg runs the default engine spec — the ``schoolbook`` backend
   — so recovery is exercised on the kernel production shards actually
   run.

Run as a pytest benchmark (``pytest benchmarks/bench_cluster.py``) or
directly (``python benchmarks/bench_cluster.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT_CLUSTER``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import time

from repro.cluster import ClusterClient, LocalFleet, run_loadtest
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import EngineSpec
from repro.service import Server, ServerConfig

#: Fleet sizes the scaling comparison runs at.
NODE_COUNTS = (1, 2)
#: Timed passes per fleet size.  The passes alternate between the fleet
#: sizes, so a slow spell on a shared runner lands on both sides of a
#: pair, and the speedup is the median of the per-pair ratios.
SCALING_PASSES = 9
#: Minimum 2-node-over-1-node throughput on a multi-core runner.
REQUIRED_SPEEDUP = 1.5
#: Saturating traffic: requests x pairs of 254/255/256-bit
#: multiplications (heavy enough that compute, not sockets, dominates).
#: The scaling race therefore pins the r4csa-lut backend explicitly: under
#: the default ``schoolbook`` spec per-batch compute drops to microseconds,
#: sockets dominate, and node-count scaling is no longer the thing being
#: measured.
SCALING_REQUESTS = 64
SCALING_PAIRS = 12
#: Seed of the kill-recovery trace.
KILL_SEED = 0xC1A5


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_CLUSTER")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_cluster.json")


def _scaling_traffic() -> list:
    """Deterministic multi-modulus request list (seeded operands).

    Several moduli so placement exercises the hash ring; the default
    replication of 2 lets the router balance them across both nodes of
    the 2-node fleet by live load.
    """
    moduli = [
        CURVE_SPECS["bn254"].field_modulus,
        CURVE_SPECS["secp256k1"].field_modulus,
        CURVE_SPECS["p256"].field_modulus,
        (1 << 255) - 19,
    ]
    rng = random.Random(0xF1EE7)
    requests = []
    for index in range(SCALING_REQUESTS):
        modulus = moduli[index % len(moduli)]
        pairs = tuple(
            (rng.randrange(modulus), rng.randrange(modulus))
            for _ in range(SCALING_PAIRS)
        )
        requests.append((modulus, pairs))
    return requests


async def _drive_fleet(port: int, requests) -> tuple:
    """Submit the traffic concurrently; time only the traffic itself."""
    async with ClusterClient("127.0.0.1", port, tenant="bench") as client:
        for modulus in dict.fromkeys(modulus for modulus, _ in requests):
            await client.multiply_batch([(1, 1)], modulus=modulus)  # warm
        started = time.perf_counter()
        responses = await asyncio.gather(*(
            client.multiply_batch(list(pairs), modulus=modulus)
            for modulus, pairs in requests
        ))
        elapsed = time.perf_counter() - started
    return [list(response.values) for response in responses], elapsed


def collect_node_scaling() -> dict:
    """The same saturating workload against 1-node and 2-node fleets.

    Each pass starts a fresh fleet and times the traffic once; the fleet
    sizes take turns, ``SCALING_PASSES`` passes each.
    """
    requests = _scaling_traffic()
    multiplications = sum(len(pairs) for _, pairs in requests)
    points = []
    products = []

    async def run_fleet(index: int, nodes: int) -> None:
        spec = EngineSpec(backend="r4csa-lut")
        async with LocalFleet(spec=spec, workers=nodes) as fleet:
            values, elapsed = await _drive_fleet(fleet.port, requests)
            rollup = fleet.router.metrics.rollup()
        products.append(values)
        points.append({
            "pass": index,
            "nodes": nodes,
            "seconds": elapsed,
            "requests_per_second": SCALING_REQUESTS / elapsed,
            "mul_per_second": multiplications / elapsed,
            "redispatches": rollup["redispatches"],
            "per_node_dispatched": {
                name: node["dispatched"]
                for name, node in rollup["per_node"].items()
            },
        })

    for index in range(SCALING_PASSES):
        for nodes in NODE_COUNTS:
            asyncio.run(run_fleet(index, nodes))

    seconds = {
        nodes: [point["seconds"] for point in points if point["nodes"] == nodes]
        for nodes in NODE_COUNTS
    }
    pair_speedups = [
        one / two
        for one, two in zip(seconds[NODE_COUNTS[0]], seconds[NODE_COUNTS[-1]])
    ]
    return {
        "workload": (
            f"{SCALING_REQUESTS} requests x {SCALING_PAIRS} pairs, "
            "4 moduli, r4csa-lut"
        ),
        "requests": SCALING_REQUESTS,
        "multiplications": multiplications,
        "cpu_count": os.cpu_count(),
        "passes": SCALING_PASSES,
        "points": points,
        "pair_speedups": pair_speedups,
        "speedup": statistics.median(pair_speedups),
        "products_identical_across_fleets": all(
            values == products[0] for values in products
        ),
    }


def collect_bit_identical(cluster_values=None) -> dict:
    """Fleet products versus a plain in-process inline server."""
    requests = _scaling_traffic()

    async def run_single() -> list:
        config = ServerConfig(
            max_batch=8 * SCALING_PAIRS,
            max_pending=8192,
            max_pending_per_tenant=8192,
        )
        async with Server(backend="r4csa-lut", config=config) as server:
            responses = await asyncio.gather(*(
                server.multiply_batch(list(pairs), modulus=modulus)
                for modulus, pairs in requests
            ))
            return [list(response.values) for response in responses]

    async def run_cluster() -> list:
        spec = EngineSpec(backend="r4csa-lut")
        async with LocalFleet(spec=spec, workers=2) as fleet:
            values, _ = await _drive_fleet(fleet.port, requests)
            return values

    inline_values = asyncio.run(run_single())
    fleet_values = (
        cluster_values if cluster_values is not None
        else asyncio.run(run_cluster())
    )
    return {
        "workload": "scaling traffic through fleet vs in-process server",
        "requests": len(requests),
        "products_identical": inline_values == fleet_values,
    }


def collect_kill_recovery() -> dict:
    """Trace replay with a mid-run SIGKILL: nothing may be lost."""
    return asyncio.run(
        run_loadtest(
            workers=2,
            duration_s=1.5,
            rate=25.0,
            seed=KILL_SEED,
            kill_worker=True,
        )
    )


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    scaling = collect_node_scaling()
    payload = {
        "benchmark": "cluster",
        "node_scaling": scaling,
        "bit_identical": collect_bit_identical(),
        "kill_recovery": collect_kill_recovery(),
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


def test_fleet_parity_and_node_scaling():
    """Acceptance: fleets agree bit-for-bit; 2 nodes scale on many cores.

    Parity (fleet vs fleet, fleet vs in-process server) is asserted
    unconditionally.  The >= 1.5x aggregate-throughput claim, on the
    median of the per-pair ratios, holds on multi-core CI runners; on one
    CPU two worker processes cannot beat one, so the speedup lands in the
    JSON but is not asserted (force it either way with
    ``BENCH_CLUSTER_REQUIRE_SCALING=1``).
    """
    payload = _payload()
    scaling = payload["node_scaling"]
    for point in scaling["points"]:
        print(
            f"pass {point['pass']}, {point['nodes']} node(s): "
            f"{point['mul_per_second']:.0f} mul/s "
            f"({point['seconds']:.2f} s, dispatch "
            f"{point['per_node_dispatched']})"
        )
    ratios = ", ".join(f"{ratio:.2f}x" for ratio in scaling["pair_speedups"])
    print(
        f"speedup {scaling['speedup']:.2f}x (median of {ratios}) "
        f"on {scaling['cpu_count']} CPU(s)"
    )
    assert scaling["products_identical_across_fleets"], (
        "1-node and 2-node fleets must produce bit-identical products"
    )
    assert _payload()["bit_identical"]["products_identical"], (
        "fleet and in-process server must produce bit-identical products"
    )
    require = os.environ.get("BENCH_CLUSTER_REQUIRE_SCALING")
    multicore = (os.cpu_count() or 1) >= 2
    if require == "1" or (require is None and multicore):
        assert scaling["speedup"] >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x 2-node-over-1-node throughput, "
            f"got a median of {scaling['speedup']:.2f}x over "
            f"{scaling['pair_speedups']}"
        )
    else:
        print(f"(speedup assertion skipped: {os.cpu_count()} CPU(s) < 2)")


def test_worker_kill_loses_nothing():
    """Acceptance: a SIGKILLed worker mid-replay costs zero requests."""
    recovery = _payload()["kill_recovery"]
    print(
        f"kill recovery: {recovery['sent']} sent, "
        f"{recovery['completed']} completed, {recovery['lost']} lost, "
        f"{recovery['mismatches']} mismatches "
        f"(killed pid {recovery['killed_pid']}, "
        f"{recovery['cluster']['redispatches']} re-dispatches)"
    )
    assert recovery["sent"] > 0
    assert recovery["lost"] == 0, "requests silently lost across the kill"
    assert recovery["mismatches"] == 0, "recovered products not bit-identical"
    assert recovery["killed_pid"] is not None
    assert recovery["cluster"]["lost_nodes"] == 1


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
