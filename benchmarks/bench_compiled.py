"""The compiled backend's speedup, measured at three tiers.

The ``repro.compiled`` subsystem exists because every serving layer —
pool shards, cluster nodes — ultimately funnels into one multiplier
loop, and the pure-Python R4CSA-LUT loop pins that at ~1.7 ms/multiply.
This benchmark measures what the per-modulus codegen kernels buy at
each tier and emits ``BENCH_compiled.json``:

1. **Kernel** — a 2^12-pair, 254-bit ``multiply_batch`` through the
   engine on ``compiled`` vs ``r4csa-lut``.  Products must be
   bit-identical (also checked against the big-int oracle) and the
   compiled path must be **>= 10x** faster — asserted unconditionally:
   the measured gap is orders of magnitude, so no capability gate is
   needed.

2. **Pool** — the multi-tenant serving self-test (2 pool workers) on
   both backends: the speedup that survives asyncio + IPC overheads.
   Asserted >= 1.5x on multi-core runners (>= 2 CPUs, e.g. CI; force
   with ``BENCH_COMPILED_REQUIRE_SCALING=1``).

3. **Fleet** — the saturating multi-modulus cluster workload through a
   2-node local fleet (real processes, sockets) under a compiled spec
   vs an r4csa-lut spec.  Bit-identical always; >= 2x on multi-core
   runners under the same gate (measured ~15-30x).

Run as a pytest benchmark (``pytest benchmarks/bench_compiled.py``) or
directly (``python benchmarks/bench_compiled.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT_COMPILED``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from repro.cluster import ClusterClient, LocalFleet
from repro.compiled.kernels import numpy_state
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import Engine, EngineSpec
from repro.service.selftest import run_self_test

#: The acceptance floor for the kernel-tier speedup.
REQUIRED_KERNEL_SPEEDUP = 10.0
#: Pool floor on multi-core runners: the pool tier pays asyncio,
#: batching-window and IPC costs on both sides, and r4csa's compute
#: parallelizes across the shards, so the surviving ratio is modest.
REQUIRED_POOL_SPEEDUP = 1.5
#: Fleet floor on multi-core runners (measured ~15-30x).
REQUIRED_FLEET_SPEEDUP = 2.0
#: Kernel tier: 2^12 pairs of 254-bit operands (the issue's workload).
KERNEL_PAIRS = 1 << 12
#: Fleet tier: the bench_cluster saturating traffic shape.
FLEET_REQUESTS = 48
FLEET_PAIRS = 8
FLEET_NODES = 2

BN254_P = CURVE_SPECS["bn254"].field_modulus


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_COMPILED")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_compiled.json")


def _require_serving_scaling() -> bool:
    require = os.environ.get("BENCH_COMPILED_REQUIRE_SCALING")
    if require is not None:
        return require == "1"
    return (os.cpu_count() or 1) >= 2


# --------------------------------------------------------------------- #
# tier 1: kernel
# --------------------------------------------------------------------- #
def collect_kernel() -> dict:
    """2^12-pair 254-bit multiply_batch: compiled vs r4csa-lut."""
    rng = random.Random(0x5EED)
    pairs = [
        (rng.randrange(BN254_P), rng.randrange(BN254_P))
        for _ in range(KERNEL_PAIRS)
    ]
    oracle = [a * b % BN254_P for a, b in pairs]

    compiled_engine = Engine(backend="compiled", modulus=BN254_P)
    compiled_engine.context()  # warm: kernel compile is not the claim
    started = time.perf_counter()
    compiled_values = list(compiled_engine.multiply_batch(pairs))
    compiled_seconds = time.perf_counter() - started

    r4csa_engine = Engine(backend="r4csa-lut", modulus=BN254_P)
    r4csa_engine.context()
    started = time.perf_counter()
    r4csa_values = list(r4csa_engine.multiply_batch(pairs))
    r4csa_seconds = time.perf_counter() - started

    return {
        "modulus_bits": BN254_P.bit_length(),
        "pairs": KERNEL_PAIRS,
        "compiled_seconds": compiled_seconds,
        "r4csa_seconds": r4csa_seconds,
        "compiled_mul_per_second": KERNEL_PAIRS / compiled_seconds,
        "r4csa_mul_per_second": KERNEL_PAIRS / r4csa_seconds,
        "speedup": r4csa_seconds / compiled_seconds,
        "required_speedup": REQUIRED_KERNEL_SPEEDUP,
        "products_identical": (
            compiled_values == r4csa_values == oracle
        ),
        "r4csa_sample_pairs": KERNEL_PAIRS,
    }


# --------------------------------------------------------------------- #
# tier 2: pool
# --------------------------------------------------------------------- #
def collect_pool() -> dict:
    """The sharded serving self-test on both backends (2 pool workers).

    Heavier than the CI smoke traffic on purpose: with only a handful of
    multiplications the wall time is all scheduling and IPC, and
    the ratio would measure overhead, not arithmetic.
    """
    workers = 2
    backends = {}
    for backend in ("r4csa-lut", "compiled"):
        metrics = run_self_test(
            backend=backend,
            workers=workers,
            tenants=2,
            requests=12,
            pairs_per_request=32,
            graph_every=6,
            graph_leaves=8,
        )
        backends[backend] = {
            "requests_per_second": metrics["requests_per_second"],
            "multiplications_per_second": metrics[
                "multiplications_per_second"
            ],
            "completed_requests": metrics["completed_requests"],
            "verified_requests": metrics["verified_requests"],
        }
    return {
        "backends": backends,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "speedup": (
            backends["compiled"]["multiplications_per_second"]
            / backends["r4csa-lut"]["multiplications_per_second"]
        ),
    }


# --------------------------------------------------------------------- #
# tier 3: fleet
# --------------------------------------------------------------------- #
def _fleet_traffic() -> list:
    moduli = [
        BN254_P,
        CURVE_SPECS["secp256k1"].field_modulus,
        (1 << 255) - 19,
    ]
    rng = random.Random(0xF1EE7)
    return [
        (
            moduli[index % len(moduli)],
            tuple(
                (rng.randrange(moduli[index % len(moduli)]),
                 rng.randrange(moduli[index % len(moduli)]))
                for _ in range(FLEET_PAIRS)
            ),
        )
        for index in range(FLEET_REQUESTS)
    ]


async def _drive_fleet(port: int, requests) -> tuple:
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


def collect_fleet() -> dict:
    """The same fleet traffic under a compiled spec vs an r4csa spec."""
    requests = _fleet_traffic()
    multiplications = FLEET_REQUESTS * FLEET_PAIRS
    backends = {}
    values_by_backend = {}

    async def run_fleet(backend: str) -> None:
        spec = EngineSpec(backend=backend)
        async with LocalFleet(spec=spec, workers=FLEET_NODES) as fleet:
            values, elapsed = await _drive_fleet(fleet.port, requests)
            values_by_backend[backend] = values
            backends[backend] = {
                "seconds": elapsed,
                "requests_per_second": FLEET_REQUESTS / elapsed,
                "mul_per_second": multiplications / elapsed,
            }

    for backend in ("r4csa-lut", "compiled"):
        asyncio.run(run_fleet(backend))

    return {
        "nodes": FLEET_NODES,
        "requests": FLEET_REQUESTS,
        "multiplications": multiplications,
        "backends": backends,
        "speedup": (
            backends["r4csa-lut"]["seconds"]
            / backends["compiled"]["seconds"]
        ),
        "products_identical": (
            values_by_backend["r4csa-lut"] == values_by_backend["compiled"]
        ),
    }


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    state = numpy_state()
    payload = {
        "benchmark": "compiled",
        "kernel": collect_kernel(),
        "pool": collect_pool(),
        "fleet": collect_fleet(),
        "numpy": {
            "requested": state.requested,
            "available": state.available,
        },
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


def test_kernel_speedup_and_parity():
    """Acceptance: >= 10x on the 2^12-pair 254-bit batch, bit-identical.

    No capability gate: the measured gap is three orders of magnitude,
    so even a loaded single-core runner clears 10x.
    """
    kernel = _payload()["kernel"]
    print(
        f"kernel: compiled {kernel['compiled_mul_per_second']:.0f} mul/s "
        f"vs r4csa-lut {kernel['r4csa_mul_per_second']:.0f} mul/s "
        f"-> {kernel['speedup']:.0f}x on {kernel['pairs']} pairs "
        f"({kernel['modulus_bits']} bits)"
    )
    assert kernel["products_identical"], (
        "compiled products must be bit-identical to r4csa-lut and the "
        "big-int oracle"
    )
    assert kernel["speedup"] >= REQUIRED_KERNEL_SPEEDUP, (
        f"expected >= {REQUIRED_KERNEL_SPEEDUP}x kernel speedup, got "
        f"{kernel['speedup']:.1f}x"
    )


def test_pool_speedup():
    """Acceptance: the kernel win survives the sharded serving stack."""
    pool = _payload()["pool"]
    for backend, metrics in pool["backends"].items():
        print(
            f"pool[{backend}]: "
            f"{metrics['multiplications_per_second']:.0f} mul/s, "
            f"{metrics['verified_requests']} verified"
        )
    print(f"pool speedup {pool['speedup']:.2f}x on {pool['cpu_count']} CPU(s)")
    for metrics in pool["backends"].values():
        assert metrics["verified_requests"] == metrics["completed_requests"]
    if _require_serving_scaling():
        assert pool["speedup"] >= REQUIRED_POOL_SPEEDUP, (
            f"expected >= {REQUIRED_POOL_SPEEDUP}x pool-tier speedup, "
            f"got {pool['speedup']:.2f}x"
        )
    else:
        print(f"(pool speedup assertion skipped: {os.cpu_count()} CPU(s) < 2)")


def test_fleet_speedup_and_parity():
    """Acceptance: the cluster fleet is faster and still bit-identical."""
    fleet = _payload()["fleet"]
    for backend, metrics in fleet["backends"].items():
        print(
            f"fleet[{backend}]: {metrics['mul_per_second']:.0f} mul/s "
            f"({metrics['seconds']:.2f} s)"
        )
    print(f"fleet speedup {fleet['speedup']:.2f}x, {fleet['nodes']} nodes")
    assert fleet["products_identical"], (
        "compiled and r4csa-lut fleets must produce bit-identical products"
    )
    if _require_serving_scaling():
        assert fleet["speedup"] >= REQUIRED_FLEET_SPEEDUP, (
            f"expected >= {REQUIRED_FLEET_SPEEDUP}x fleet-tier speedup, "
            f"got {fleet['speedup']:.2f}x"
        )
    else:
        print(
            f"(fleet speedup assertion skipped: {os.cpu_count()} CPU(s) < 2)"
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
