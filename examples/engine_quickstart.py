#!/usr/bin/env python3
"""Engine quickstart: one entry point for every arithmetic backend.

Demonstrates the unified Engine API introduced by the API redesign:

1. single multiplications with capability metadata and modeled cycles,
2. batched execution against one cached per-modulus context,
3. the same calls routed through the cycle-accurate ModSRAM model,
4. engine-backed ECC and ZKP substrates (field, curve, NTT).

Run with ``python examples/engine_quickstart.py``.
"""

from __future__ import annotations

import random
import time

from repro.engine import Engine, available_backends, get_backend


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. One multiplication, any backend.
    # ------------------------------------------------------------------ #
    engine = Engine(backend="r4csa-lut", curve="bn254")
    modulus = engine.default_modulus
    rng = random.Random(2024)
    a, b = rng.randrange(modulus), rng.randrange(modulus)

    result = engine.multiply(a, b)
    print("Engine(backend='r4csa-lut', curve='bn254')")
    print(f"  a*b mod p      = {result.value:#x}")
    print(f"  modeled cycles = {result.modeled_cycles} at {result.bitwidth} bits")
    print(f"  backend info   : {engine.info.kind}, "
          f"direct form: {engine.info.direct_form}, "
          f"cycle model: {engine.info.has_cycle_model}")
    print()

    # ------------------------------------------------------------------ #
    # 2. Batched execution: validate once, reuse one cached context.
    # ------------------------------------------------------------------ #
    pairs = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in range(1024)]
    fast = Engine(backend="montgomery", curve="bn254")
    fast.multiply_batch(pairs[:1])  # warm the per-modulus context

    start = time.perf_counter()
    for x, y in pairs:
        fast.multiply(x, y)
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = fast.multiply_batch(pairs)
    batch_seconds = time.perf_counter() - start

    print("Batched execution (montgomery backend, 2^10 pairs, 254-bit operands)")
    print(f"  per-call loop   : {loop_seconds * 1e3:7.2f} ms")
    print(f"  multiply_batch  : {batch_seconds * 1e3:7.2f} ms "
          f"({loop_seconds / batch_seconds:.1f}x faster)")
    print(f"  precomputations : {batch.stats.precomputations} in the batch "
          "(constants were cached before it started)")
    print(f"  context cache   : {fast.cache_stats.as_dict()}")
    print()

    # ------------------------------------------------------------------ #
    # 3. The same API on the cycle-accurate hardware model.
    # ------------------------------------------------------------------ #
    hardware = Engine(backend="modsram", curve="bn254")
    hw_result = hardware.multiply(a, b)
    assert hw_result.value == result.value
    report = hardware.context().multiplier.last_report
    print("Engine(backend='modsram'): cycle-accurate 8T-SRAM model")
    print(f"  main-loop cycles: {report.iteration_cycles}  (paper: 767)")
    print(f"  latency         : {report.latency_us:.2f} us "
          f"at {report.frequency_mhz:.0f} MHz")
    print()

    # ------------------------------------------------------------------ #
    # 4. Engine-backed application substrates.
    # ------------------------------------------------------------------ #
    ntt = engine.ntt(8)  # BN254 scalar field (NTT friendly) by default
    coefficients = [rng.randrange(ntt.modulus) for _ in range(8)]
    assert ntt.inverse(ntt.forward(coefficients)) == coefficients
    curve = engine.curve()
    print("Application substrates routed through the same cached contexts")
    print(f"  ntt            : size {ntt.size} over {ntt.modulus:#x}")
    print(f"  curve          : {curve.name}, "
          f"field backend {curve.field.multiplier.name!r}")
    print(f"  engine stats   : {engine.stats().multiplications} backend "
          "multiplications so far")
    print()

    names = available_backends()
    kinds = {name: get_backend(name).info.kind for name in names}
    print(f"{len(names)} registered backends: "
          + ", ".join(f"{name} ({kinds[name]})" for name in names))


if __name__ == "__main__":
    main()
