"""Fidelity-tier speedup and chip scale-out throughput, machine-readable.

Two claims of the layered simulation core, measured and emitted as
``BENCH_chip_scaling.json``:

1. **Fidelity-tier speedup** — the analytical tier (``modsram-fast``) runs
   a *full ECDSA signing operation* (one ``k·G`` scalar multiplication over
   P-256, every field multiplication through the R4CSA-LUT recurrence as
   one word-level loop) at least 10x faster than the cycle-accurate tier,
   which runs the same recurrence one kernel step per clock cycle on the
   SRAM substrate.  The analytical sign is measured end to end; the cycle
   tier's full-sign time is derived from its measured per-multiplication
   cost times the sign's exact multiplication count (legitimate because
   the ModSRAM schedule is data-independent — asserted by
   ``tests/modsram/test_accelerator.py``).  Set ``BENCH_FULL=1`` to run the
   true cycle-accurate sign end to end as well (~10 minutes).

2. **Chip scale-out** — throughput versus macro count for the
   LUT-reuse-aware chip scheduler on the ECDSA and NTT streams.

Run as a pytest benchmark (``pytest benchmarks/bench_chip_scaling.py``) or
directly (``python benchmarks/bench_chip_scaling.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT``).
"""

from __future__ import annotations

import json
import os
import time

from repro.analysis.chip_scaling import reproduce_chip_scaling
from repro.ecc.ecdsa import Ecdsa
from repro.engine import Engine
from repro.modsram import AnalyticalModSRAM, ModSRAMAccelerator, ModSRAMConfig

#: Required fidelity-tier advantage on a full ECDSA sign (acceptance floor).
REQUIRED_SPEEDUP = 10.0
#: Cycle-accurate multiplications timed to derive the per-multiply cost.
CYCLE_TIER_SAMPLES = 3

P256_P = (1 << 256) - (1 << 224) + (1 << 192) + (1 << 96) - 1


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_chip_scaling.json")


def _measure_sign(engine: Engine, message: bytes = b"bench") -> dict:
    """Time one full deterministic ECDSA sign; count its multiplications."""
    ecdsa = Ecdsa(engine.curve("p256"))
    before = engine.stats().multiplications
    start = time.perf_counter()
    signature = ecdsa.sign(0x1CE1CE1CE1CE1CE, message)
    elapsed = time.perf_counter() - start
    multiplications = engine.stats().multiplications - before
    assert signature.r and signature.s
    return {"seconds": elapsed, "multiplications": multiplications}


def _measure_cycle_tier_per_multiply() -> float:
    """Measured wall time of one cycle-accurate 256-bit multiplication."""
    accelerator = ModSRAMAccelerator(ModSRAMConfig())
    a, b = P256_P // 3, P256_P // 5
    accelerator.multiply(a, b, P256_P)  # warm the LUT rows
    start = time.perf_counter()
    for offset in range(CYCLE_TIER_SAMPLES):
        accelerator.multiply(a - offset, b, P256_P)
    return (time.perf_counter() - start) / CYCLE_TIER_SAMPLES


def _measure_analytical_per_multiply() -> float:
    analytical = AnalyticalModSRAM(ModSRAMConfig())
    a, b = P256_P // 3, P256_P // 5
    analytical.multiply(a, b, P256_P)
    rounds = 20
    start = time.perf_counter()
    for offset in range(rounds):
        analytical.multiply(a - offset, b, P256_P)
    return (time.perf_counter() - start) / rounds


def collect_fidelity_speedup() -> dict:
    """The fidelity-tier section of the benchmark payload."""
    analytical_sign = _measure_sign(Engine(backend="modsram-fast", curve="p256"))
    cycle_per_multiply = _measure_cycle_tier_per_multiply()
    analytical_per_multiply = _measure_analytical_per_multiply()

    cycle_sign_seconds = cycle_per_multiply * analytical_sign["multiplications"]
    cycle_sign_measured = False
    if os.environ.get("BENCH_FULL"):
        cycle_engine = Engine(backend="modsram", curve="p256")
        cycle_sign_seconds = _measure_sign(cycle_engine)["seconds"]
        cycle_sign_measured = True

    speedup = cycle_sign_seconds / analytical_sign["seconds"]
    return {
        "workload": "full ECDSA sign (P-256, deterministic nonce)",
        "sign_multiplications": analytical_sign["multiplications"],
        "analytical_sign_seconds": analytical_sign["seconds"],
        "cycle_sign_seconds": cycle_sign_seconds,
        "cycle_sign_measured_end_to_end": cycle_sign_measured,
        "cycle_per_multiply_seconds": cycle_per_multiply,
        "analytical_per_multiply_seconds": analytical_per_multiply,
        "per_multiply_speedup": cycle_per_multiply / analytical_per_multiply,
        "full_sign_speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    }


def collect_chip_scaling() -> dict:
    """The chip scale-out section: modelled throughput versus macro count."""
    payload = {}
    for workload, kwargs in (
        ("ecdsa-sign", {"scalar_bits": 256}),
        ("ntt", {"vector_size": 4096}),
    ):
        result = reproduce_chip_scaling(
            workload=workload, macro_counts=(1, 2, 4, 8, 16), **kwargs
        )
        payload[workload] = [point.to_dict() for point in result.points]
    return payload


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    payload = {
        "benchmark": "chip_scaling",
        "fidelity": collect_fidelity_speedup(),
        "chip_scaling": collect_chip_scaling(),
    }
    path = write_payload(payload)
    payload["output"] = path
    return payload


def test_analytical_tier_signs_at_least_10x_faster():
    """Acceptance: analytical full ECDSA sign >= 10x the cycle tier."""
    payload = run_benchmark()
    fidelity = payload["fidelity"]
    print(
        f"\nfull P-256 sign ({fidelity['sign_multiplications']} muls): "
        f"analytical {fidelity['analytical_sign_seconds']:.2f} s, "
        f"cycle tier {fidelity['cycle_sign_seconds']:.1f} s "
        f"({'measured' if fidelity['cycle_sign_measured_end_to_end'] else 'derived'}) "
        f"=> {fidelity['full_sign_speedup']:.0f}x"
    )
    assert fidelity["full_sign_speedup"] >= REQUIRED_SPEEDUP, (
        "analytical tier must sign >= 10x faster than the cycle tier, got "
        f"{fidelity['full_sign_speedup']:.1f}x"
    )

    scaling = payload["chip_scaling"]["ecdsa-sign"]
    throughputs = [point["throughput_mops"] for point in scaling]
    print("ecdsa-sign Mmul/s vs macros:",
          {point["macros"]: round(point["throughput_mops"], 2) for point in scaling})
    assert throughputs == sorted(throughputs), (
        "chip throughput must not regress as macros are added"
    )
    print(f"benchmark JSON written to {payload['output']}")


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
