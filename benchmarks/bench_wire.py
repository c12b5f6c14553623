"""Wire protocol v2 claims, measured and machine-readable.

Two claims of the ``repro.cluster`` binary codec, emitted as
``BENCH_wire.json``:

1. **Codec throughput** — one 4096-pair batch of 254-bit operands runs
   through the per-request codec paths exactly as the fleet executes
   them, v1 and v2 interleaved repetition-by-repetition so scheduler
   noise lands on both codecs alike:

   * ``dispatch_path`` (asserted >= 5x): the client encodes the submit,
     the router decodes it and re-encodes the job it places — every
     codec operation between a caller and its assigned worker.  v2's
     decode is lazy (operand blobs stay packed bytes until a consumer
     computes) and its re-encode forwards those bytes zero-copy, which
     is what makes the router's pipelined dispatch cheap.
   * ``wire_path`` (floor-asserted >= 3.5x, typically ~5x): the same
     path plus the worker's decode *and* operand materialization — no
     cost is amortized away; this is every byte-to-int conversion a
     request pays before compute.  It sits lower because both wires
     bottom out in the same per-int conversion the worker cannot skip.
   * the single encode and decode legs, reported for transparency.

2. **End-to-end fleet throughput** — the same saturating wire-heavy
   traffic (large batches, default ``schoolbook`` backend, so framing
   rather than arithmetic dominates) runs against a 2-node local fleet
   once per wire version.  Products must be bit-identical across wires
   (asserted unconditionally); on a multi-core runner (>= 2 CPUs, e.g.
   CI) wire v2 must additionally sustain >= 2x the v1 throughput (force
   the assertion either way with ``BENCH_WIRE_REQUIRE_SPEEDUP=1``).

Run as a pytest benchmark (``pytest benchmarks/bench_wire.py``) or
directly (``python benchmarks/bench_wire.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT_WIRE``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import time

from repro.cluster import ClusterClient, LocalFleet
from repro.cluster.protocol import (
    _V2_HEADER,
    PackedInts,
    decode_frame,
    decode_frame_v2,
    encode_frame,
    encode_frame_v2,
)
from repro.ecc.curves_data import CURVE_SPECS

#: The codec race payload: one submit batch of 254-bit operand pairs.
CODEC_PAIRS = 4096
CODEC_BIT_WIDTH = 254
#: Minimum v2-over-v1 speedup on the dispatch path (asserted always).
REQUIRED_DISPATCH_SPEEDUP = 5.0
#: Regression floor on the full path incl. worker materialization.
REQUIRED_WIRE_PATH_SPEEDUP = 3.5
#: Minimum v2-over-v1 fleet throughput on a multi-core runner.
REQUIRED_FLEET_SPEEDUP = 2.0
#: Wire-heavy fleet traffic: big batches on the (microsecond-fast)
#: default schoolbook backend, so the codec is what the race measures.
FLEET_REQUESTS = 32
FLEET_PAIRS = 512
#: Timing repetitions (best-of, to shed scheduler noise).
CODEC_REPS = 25


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT_WIRE")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_wire.json")


def _codec_message() -> dict:
    """The raced submit frame: 4096 seeded 254-bit operand pairs."""
    modulus = CURVE_SPECS["bn254"].field_modulus
    rng = random.Random(0x31BE)
    pairs = [
        [rng.randrange(modulus), rng.randrange(modulus)]
        for _ in range(CODEC_PAIRS)
    ]
    return {
        "type": "submit",
        "id": 1,
        "tenant": "bench",
        "kind": "pairs",
        "modulus": modulus,
        "pairs": pairs,
    }


def _race(fn_v1, fn_v2, reps: int = CODEC_REPS) -> tuple:
    """Interleaved best-of-``reps`` wall times in ms: ``(v1, v2)``.

    The codecs alternate repetition-by-repetition so a scheduler stall
    inflates both sides rather than one, and GC stays suspended while
    timing (the same discipline :mod:`timeit` applies).
    """
    best_v1 = best_v2 = float("inf")
    fn_v1(), fn_v2()  # warm caches outside the timed reps
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            started = time.perf_counter()
            fn_v1()
            best_v1 = min(best_v1, time.perf_counter() - started)
            started = time.perf_counter()
            fn_v2()
            best_v2 = min(best_v2, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_v1 * 1e3, best_v2 * 1e3


def _materialize(payload) -> list:
    """Exactly what the worker does before computing on a batch."""
    if isinstance(payload, PackedInts):
        return payload.topairs()
    return [(int(a), int(b)) for a, b in payload]


def _v1_encode(message: dict) -> bytes:
    return encode_frame(message)


def _v1_decode(frame: bytes) -> dict:
    return decode_frame(frame[4:])


def _v2_encode(message: dict) -> bytes:
    return b"".join(encode_frame_v2(message))


def _v2_decode(frame: bytes) -> dict:
    code = _V2_HEADER.unpack_from(frame)[2]
    return decode_frame_v2(bytes(frame[_V2_HEADER.size :]), code)


def collect_codec() -> dict:
    """Race the two codecs over the identical submit batch."""
    message = _codec_message()
    modulus = message["modulus"]
    expected = [(int(a), int(b)) for a, b in message["pairs"]]

    def forward(decoded: dict) -> dict:
        return {
            "type": "job",
            "id": decoded["id"],
            "kind": "pairs",
            "modulus": modulus,
            "payload": decoded["pairs"],
        }

    def dispatch(encode, decode) -> bytes:
        # Client -> router -> placed worker's socket: encode the submit,
        # decode it at the router, re-encode the job the router places.
        return encode(forward(decode(encode(message))))

    def path(encode, decode) -> list:
        # dispatch() plus the worker's side: decode the job and
        # materialize the operand pairs it computes on.
        job = decode(dispatch(encode, decode))
        return _materialize(job["payload"])

    frame1, frame2 = _v1_encode(message), _v2_encode(message)
    decoded1, decoded2 = _v1_decode(frame1), _v2_decode(frame2)
    pairs1 = path(_v1_encode, _v1_decode)
    pairs2 = path(_v2_encode, _v2_decode)
    assert pairs1 == expected and pairs2 == expected, (
        "codec round trips must reproduce the operand pairs exactly"
    )
    assert decoded1["modulus"] == decoded2["modulus"] == modulus

    enc1_ms, enc2_ms = _race(
        lambda: _v1_encode(message), lambda: _v2_encode(message)
    )
    dec1_ms, dec2_ms = _race(
        lambda: _v1_decode(frame1), lambda: _v2_decode(frame2)
    )
    disp1_ms, disp2_ms = _race(
        lambda: dispatch(_v1_encode, _v1_decode),
        lambda: dispatch(_v2_encode, _v2_decode),
    )
    path1_ms, path2_ms = _race(
        lambda: path(_v1_encode, _v1_decode),
        lambda: path(_v2_encode, _v2_decode),
    )
    return {
        "workload": f"{CODEC_PAIRS} pairs x {CODEC_BIT_WIDTH}-bit (bn254)",
        "pairs": CODEC_PAIRS,
        "bit_width": CODEC_BIT_WIDTH,
        "frame_bytes": {"v1": len(frame1), "v2": len(frame2)},
        "v1": {
            "encode_ms": enc1_ms,
            "decode_ms": dec1_ms,
            "total_ms": enc1_ms + dec1_ms,
        },
        "v2": {
            "encode_ms": enc2_ms,
            "decode_ms": dec2_ms,
            "total_ms": enc2_ms + dec2_ms,
        },
        "one_hop_speedup": (enc1_ms + dec1_ms) / (enc2_ms + dec2_ms),
        "dispatch_path": {
            "description": (
                "client encode -> router decode -> router re-encode"
            ),
            "v1_ms": disp1_ms,
            "v2_ms": disp2_ms,
            "speedup": disp1_ms / disp2_ms,
        },
        "wire_path": {
            "description": (
                "client encode -> router decode -> router re-encode -> "
                "worker decode + materialize"
            ),
            "v1_ms": path1_ms,
            "v2_ms": path2_ms,
            "speedup": path1_ms / path2_ms,
        },
    }


def _fleet_traffic() -> list:
    """Deterministic wire-heavy request list (seeded operands)."""
    moduli = [
        CURVE_SPECS["bn254"].field_modulus,
        CURVE_SPECS["secp256k1"].field_modulus,
    ]
    rng = random.Random(0x31BE + 1)
    requests = []
    for index in range(FLEET_REQUESTS):
        modulus = moduli[index % len(moduli)]
        pairs = tuple(
            (rng.randrange(modulus), rng.randrange(modulus))
            for _ in range(FLEET_PAIRS)
        )
        requests.append((modulus, pairs))
    return requests


def collect_fleet() -> dict:
    """The same traffic through a 2-node fleet, once per wire version."""
    requests = _fleet_traffic()
    multiplications = sum(len(pairs) for _, pairs in requests)
    points = {}
    values_by_wire = {}

    async def run_fleet(wire: int) -> None:
        async with LocalFleet(workers=2, wire=wire) as fleet:
            async with ClusterClient(
                "127.0.0.1", fleet.port, tenant="bench", wire=wire
            ) as client:
                for modulus in dict.fromkeys(m for m, _ in requests):
                    await client.multiply_batch([(1, 1)], modulus=modulus)
                started = time.perf_counter()
                responses = await asyncio.gather(*(
                    client.multiply_batch(list(pairs), modulus=modulus)
                    for modulus, pairs in requests
                ))
                elapsed = time.perf_counter() - started
            rollup = fleet.router.metrics.rollup()
        values_by_wire[wire] = [list(r.values) for r in responses]
        points[wire] = {
            "wire": wire,
            "seconds": elapsed,
            "requests_per_second": FLEET_REQUESTS / elapsed,
            "mul_per_second": multiplications / elapsed,
            "wire_frames": rollup.get("wire_frames", {}),
        }

    for wire in (1, 2):
        asyncio.run(run_fleet(wire))

    return {
        "workload": (
            f"{FLEET_REQUESTS} requests x {FLEET_PAIRS} pairs, "
            "2 moduli, schoolbook backend, 2 nodes"
        ),
        "requests": FLEET_REQUESTS,
        "multiplications": multiplications,
        "cpu_count": os.cpu_count(),
        "points": [points[1], points[2]],
        "speedup": points[1]["seconds"] / points[2]["seconds"],
        "products_identical_across_wires": (
            values_by_wire[1] == values_by_wire[2]
        ),
    }


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    payload = {
        "benchmark": "wire",
        "codec": collect_codec(),
        "fleet": collect_fleet(),
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


def test_codec_path_speedup():
    """Acceptance: v2 dispatches a batch >= 5x faster than JSON.

    The dispatch path is every codec operation between a client and its
    placed worker — the client's encode plus the router's decode and
    forward re-encode, the per-request work the fleet's one shared
    router must keep up with.  The full wire path (plus the worker's
    decode and operand materialization, so no byte-to-int conversion is
    amortized away) is floor-asserted alongside; it sits lower because
    both wires bottom out in the same per-int conversions at the
    endpoints.  Single-threaded races, so asserted on any runner.
    """
    codec = _payload()["codec"]
    print(
        f"one hop: v1 {codec['v1']['total_ms']:.2f} ms "
        f"(enc {codec['v1']['encode_ms']:.2f} / dec {codec['v1']['decode_ms']:.2f}), "
        f"v2 {codec['v2']['total_ms']:.2f} ms "
        f"(enc {codec['v2']['encode_ms']:.2f} / dec {codec['v2']['decode_ms']:.2f}) "
        f"-> {codec['one_hop_speedup']:.2f}x"
    )
    dispatch = codec["dispatch_path"]
    wire_path = codec["wire_path"]
    print(
        f"dispatch path: v1 {dispatch['v1_ms']:.2f} ms, "
        f"v2 {dispatch['v2_ms']:.2f} ms -> {dispatch['speedup']:.2f}x"
    )
    print(
        f"wire path: v1 {wire_path['v1_ms']:.2f} ms, "
        f"v2 {wire_path['v2_ms']:.2f} ms -> {wire_path['speedup']:.2f}x"
    )
    print(
        f"frame bytes: v1 {codec['frame_bytes']['v1']}, "
        f"v2 {codec['frame_bytes']['v2']}"
    )
    assert codec["frame_bytes"]["v2"] < codec["frame_bytes"]["v1"], (
        "binary frames must be smaller than their JSON equivalents"
    )
    assert dispatch["speedup"] >= REQUIRED_DISPATCH_SPEEDUP, (
        f"expected >= {REQUIRED_DISPATCH_SPEEDUP}x dispatch-path speedup, "
        f"got {dispatch['speedup']:.2f}x"
    )
    assert wire_path["speedup"] >= REQUIRED_WIRE_PATH_SPEEDUP, (
        f"expected >= {REQUIRED_WIRE_PATH_SPEEDUP}x wire-path speedup, "
        f"got {wire_path['speedup']:.2f}x"
    )


def test_fleet_wire_parity_and_speedup():
    """Acceptance: wires agree bit-for-bit; v2 >= 2x on many cores.

    Parity is asserted unconditionally.  The throughput claim holds on
    multi-core runners where the fleet actually runs concurrently; on
    one CPU the race still lands in the JSON but is not asserted (force
    it either way with ``BENCH_WIRE_REQUIRE_SPEEDUP=1``).
    """
    fleet = _payload()["fleet"]
    for point in fleet["points"]:
        print(
            f"wire v{point['wire']}: {point['mul_per_second']:.0f} mul/s "
            f"({point['seconds']:.2f} s)"
        )
    print(f"speedup {fleet['speedup']:.2f}x on {fleet['cpu_count']} CPU(s)")
    assert fleet["products_identical_across_wires"], (
        "wire v1 and v2 fleets must produce bit-identical products"
    )
    require = os.environ.get("BENCH_WIRE_REQUIRE_SPEEDUP")
    multicore = (os.cpu_count() or 1) >= 2
    if require == "1" or (require is None and multicore):
        assert fleet["speedup"] >= REQUIRED_FLEET_SPEEDUP, (
            f"expected >= {REQUIRED_FLEET_SPEEDUP}x v2-over-v1 fleet "
            f"throughput, got {fleet['speedup']:.2f}x"
        )
    else:
        print(f"(speedup assertion skipped: {os.cpu_count()} CPU(s) < 2)")


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
