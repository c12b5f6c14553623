"""The ``engine-bulk`` workload: library calls on one engine, no serving.

The engine is built from the serving default ``EngineSpec()``.  Two
parts share the run's time, whichever has used less so far going next:

* **batch part** — ``Engine.multiply_batch`` on a 4096-pair batch for
  each of the three base fields, then a 4096-leaf ``product_tree_graph``
  built and run through ``execute_graph``;
* **call part** — ECDSA signing on the engine-backed secp256k1 curve and
  a forward plus inverse 4096-point NTT through ``Engine.ntt`` on the
  BN254 scalar field, again balanced by time used.

Every batch product is checked against ``a * b % p``, and that check is
timed: it is the honest floor the kernel races.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from harness import (
    Calibrator,
    Ledger,
    PassResult,
    check_products,
    check_tree,
    cpu_seconds,
    freeze_inputs,
    median,
    peak_rss_mb,
    ratio,
    tail_p95,
    timed,
)

CURVES = ("bn254", "secp256k1", "p256")
BATCH_PAIRS = 4096
TREE_LEAVES = 4096
NTT_SIZE = 4096
#: Distinct batches per field; rounds cycle through them.
BATCH_SETS = 2
SIGNATURES = 16
NTT_VECTORS = 2
#: Pairs per batch round timed through the backend's per-call path
#: (traced passes only).
BACKEND_SAMPLE = 256


@dataclass
class Inputs:
    batches: List[Tuple[int, List[Tuple[int, int]]]]
    trees: List[Tuple[int, List[int]]]
    signatures: List[Tuple[int, bytes, object]]
    ntt_modulus: int
    ntt_vectors: List[Tuple[List[int], List[int]]]


def make_inputs(seed: int) -> Inputs:
    from repro.ecc import CURVE_SPECS
    from repro.ecc.ecdsa import Ecdsa
    from repro.engine import Engine
    from repro.zkp.ntt import NttContext

    rng = random.Random(seed)
    moduli = [CURVE_SPECS[name].field_modulus for name in CURVES]
    batches = [
        (p, [(rng.randrange(p), rng.randrange(p)) for _ in range(BATCH_PAIRS)])
        for _ in range(BATCH_SETS)
        for p in moduli
    ]
    trees = [(p, [rng.randrange(1, p) for _ in range(TREE_LEAVES)]) for p in moduli]
    # Reference signatures come from the big-int oracle backend.
    reference = Ecdsa(Engine(backend="schoolbook").curve("secp256k1"))
    order = CURVE_SPECS["secp256k1"].order
    signatures = []
    for index in range(SIGNATURES):
        key = rng.randrange(1, order)
        message = b"perfbench-%d-%d" % (seed, index)
        signatures.append((key, message, reference.sign(key, message)))
    q = CURVE_SPECS["bn254"].scalar_field_modulus
    plain = NttContext(q, NTT_SIZE)
    vectors = []
    for _ in range(NTT_VECTORS):
        values = [rng.randrange(q) for _ in range(NTT_SIZE)]
        vectors.append((values, plain.forward(values)))
    return Inputs(batches, trees, signatures, q, vectors)


@dataclass
class System:
    engine: object
    signer: object
    ntt: object


def _clear_kernel_cache() -> None:
    """Drop process-wide compiled kernels, so each set-up starts cold."""
    try:
        from repro.compiled import clear_kernel_cache
    except ImportError:
        return
    clear_kernel_cache()


def _setup(inputs: Inputs, ledger: Ledger) -> System:
    from repro.ecc.ecdsa import Ecdsa
    from repro.engine import EngineSpec

    _clear_kernel_cache()
    engine = EngineSpec().build()
    for p, pairs in inputs.batches[: len(CURVES)]:
        head = pairs[:2]
        values = engine.multiply_batch(head, p).values
        check_products(ledger, values, [a * b % p for a, b in head])
    signer = Ecdsa(engine.curve("secp256k1"))
    ntt = engine.ntt(NTT_SIZE, modulus=inputs.ntt_modulus)
    key, message, expected = inputs.signatures[0]
    ledger.operation(
        [] if signer.sign(key, message) == expected else ["signature"]
    )
    return System(engine, signer, ntt)


def _measure(
    system: System, inputs: Inputs, seconds: float, traced: bool,
    ledger: Ledger, calibrator: Calibrator,
) -> PassResult:
    """Alternate the parts until ``seconds`` pass.

    Every time is host-scaled (:class:`~harness.Calibrator`), and rates
    divide work by the *median* time of its unit (a batch round, a
    signature, an NTT).
    """
    from repro.workloads import execute_graph, product_tree_graph

    engine = system.engine
    clock = time.perf_counter
    cpu_before = cpu_seconds()
    spent = {"batch": 0.0, "sign": 0.0, "ntt": 0.0}
    rounds: List[float] = []
    batch_calls: List[float] = []
    floors: List[float] = []
    builds: List[float] = []
    executions: List[float] = []
    signs: List[float] = []
    ntts: List[float] = []
    backend = 0.0
    products = backend_pairs = sign_mults = ntt_mults = 0
    deadline = clock() + seconds
    while clock() < deadline:
        calibrator.tick()
        scale = calibrator.local()
        if spent["batch"] <= spent["sign"] + spent["ntt"]:
            round_time = 0.0
            base = (len(rounds) % BATCH_SETS) * len(CURVES)
            for p, pairs in inputs.batches[base:base + len(CURVES)]:
                began = clock()
                result = engine.multiply_batch(pairs, p)
                elapsed = clock() - began
                batch_calls.append(elapsed * scale)
                round_time += elapsed
                began = clock()
                expected = [a * b % p for a, b in pairs]
                floors.append((clock() - began) * scale)
                check_products(ledger, result.values, expected)
                products += len(pairs)
                if traced:
                    multiply = engine.context(p).multiplier.multiply
                    sample = pairs[:BACKEND_SAMPLE]
                    began = clock()
                    values = [multiply(a, b, p) for a, b in sample]
                    backend += (clock() - began) * scale
                    backend_pairs += len(sample)
                    check_products(ledger, values, expected[:BACKEND_SAMPLE])
            p, leaves = inputs.trees[len(rounds) % len(inputs.trees)]
            began = clock()
            graph = product_tree_graph(leaves)
            middle = clock()
            execution = execute_graph(engine, graph, p)
            ended = clock()
            builds.append((middle - began) * scale)
            executions.append((ended - middle) * scale)
            round_time += ended - began
            check_tree(ledger, graph, execution.values, p)
            products += len(graph)
            rounds.append(round_time * scale)
            spent["batch"] += round_time
        elif spent["sign"] <= spent["ntt"]:
            key, message, expected = inputs.signatures[
                len(signs) % len(inputs.signatures)
            ]
            before = engine.stats().multiplications
            began = clock()
            signature = system.signer.sign(key, message)
            elapsed = clock() - began
            spent["sign"] += elapsed
            signs.append(elapsed * scale)
            sign_mults += engine.stats().multiplications - before
            ledger.operation([] if signature == expected else ["signature"])
        else:
            values, expected = inputs.ntt_vectors[len(ntts) % len(inputs.ntt_vectors)]
            before = engine.stats().multiplications
            began = clock()
            forward = system.ntt.forward(values)
            inverse = system.ntt.inverse(forward)
            elapsed = clock() - began
            spent["ntt"] += elapsed
            ntts.append(elapsed * scale)
            ntt_mults += engine.stats().multiplications - before
            broken = [] if forward == expected else ["ntt_forward"]
            if inverse != values:
                broken.append("ntt_roundtrip")
            ledger.operation(broken)
    batch_time = len(rounds) * median(rounds)
    call_time = len(signs) * median(signs) + len(ntts) * median(ntts)
    call_mults = sign_mults + ntt_mults
    calls = 5 * len(rounds) + len(signs) + len(ntts)
    batch_ns = median(batch_calls) / BATCH_PAIRS * 1e9
    floor_ns = median(floors) / BATCH_PAIRS * 1e9
    result = PassResult(
        end_to_end={
            "latency_p50_ms": median(signs) * 1e3,
            "latency_p95_ms": tail_p95(signs) * 1e3,
            "saturated_rps": ratio(calls, batch_time + call_time),
            "batch_pairs_per_s": ratio(products, batch_time),
            "call_mults_per_s": ratio(call_mults, call_time),
            "sim_mults_per_s": ratio(products + call_mults, batch_time + call_time),
        },
        samples={
            "batch_rounds": len(rounds),
            "batch_products": products,
            "signatures": len(signs),
            "ntts": len(ntts),
        },
        extras={
            "engine.batch_ns_per_pair": batch_ns,
            "floor.ns_per_pair": floor_ns,
            "engine.floor_ratio": ratio(batch_ns, floor_ns),
        },
    )
    if traced:
        result.layers = {
            **result.extras,
            "engine.cache_hit_ratio": engine.stats().cache.hit_rate,
            "engine.backend.ns_per_call": ratio(backend, backend_pairs) * 1e9,
            "workloads.build_ms": median(builds) * 1e3,
            "workloads.exec_ns_per_node": median(executions) / (TREE_LEAVES - 1) * 1e9,
            "ecc.sign_ms": median(signs) * 1e3,
            "ecc.mults_per_sign": ratio(sign_mults, len(signs)),
            "zkp.ntt_ms": median(ntts) * 1e3,
            "zkp.mults_per_ntt": ratio(ntt_mults, len(ntts)),
            "process.cpu_s": (cpu_seconds() - cpu_before) * calibrator.scale,
        }
    return result


def run(
    workload: str, seed: int, seconds: float, trace: bool, ledger: Ledger,
    calibrator: Calibrator,
):
    inputs = make_inputs(seed)
    freeze_inputs()
    system, setup_times = timed(lambda: _setup(inputs, ledger), calibrator)
    untraced = _measure(system, inputs, seconds, False, ledger, calibrator)
    traced = None
    if trace:
        traced = _measure(
            _setup(inputs, ledger), inputs, seconds, True, ledger, calibrator
        )
    return {
        "setup_times": setup_times,
        "untraced": untraced,
        "traced": traced,
        "info": {"ntt_size": NTT_SIZE, "batch_pairs": BATCH_PAIRS},
        "peak_rss_mb": peak_rss_mb(),
    }
