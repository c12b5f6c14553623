#!/usr/bin/env python3
"""Elliptic-curve scalar multiplication with ModSRAM as the multiplier.

The paper positions ModSRAM as the modular-multiplication engine for ECC:
the 64-row array holds the operands of a point addition and the LUT word
lines are reused across the many multiplications of one point operation.
This example:

* runs an EC point addition and doubling where *every* field multiplication
  executes on the cycle-accurate ModSRAM model,
* reports how many multiplications / cycles the point operations needed and
  how often the resident LUTs were reused, and
* projects the latency of a full 255-bit scalar multiplication from the
  measured per-operation counts.

Run with ``python examples/ecc_point_multiplication.py``.
"""

from __future__ import annotations

import random

from repro.analysis import render_table
from repro.ecc import PrimeField, build_curve, CURVE_SPECS, scalar_multiply
from repro.modsram import ModSRAMMultiplier, PAPER_CONFIG


def run_point_operations_on_modsram() -> None:
    spec = CURVE_SPECS["bn254"]
    adapter = ModSRAMMultiplier(PAPER_CONFIG)
    field = PrimeField(spec.field_modulus, multiplier=adapter)
    curve = build_curve(spec, field=field)

    generator = curve.generator
    doubled = curve.double(generator)
    field.counter.reset()
    adapter.reset_stats()

    tripled = curve.add(doubled, generator)
    assert curve.contains(tripled)

    modmuls = field.counter.count("modmul")
    cycles = adapter.total_iteration_cycles()
    reuse = adapter.lut_reuse_rate()
    latency_us = cycles / PAPER_CONFIG.frequency_mhz

    print("One EC point addition (BN254), every multiplication in-SRAM")
    print(f"  modular multiplications : {modmuls}")
    print(f"  modular inversions      : {field.counter.count('modinv')} (near-memory)")
    print(f"  ModSRAM main-loop cycles: {cycles}  ({cycles // max(modmuls,1)} per multiplication)")
    print(f"  LUT reuse rate          : {reuse:.0%}")
    print(f"  projected latency       : {latency_us:.1f} us at "
          f"{PAPER_CONFIG.frequency_mhz:.0f} MHz")
    print()


def project_scalar_multiplication_latency() -> None:
    """Estimate a full scalar multiplication from per-point-operation costs."""
    spec = CURVE_SPECS["bn254"]
    reference = build_curve(spec)
    rng = random.Random(7)
    scalar = rng.randrange(1, spec.order)

    # Count the field multiplications of the double-and-add ladder in software.
    reference.field.counter.reset()
    scalar_multiply(reference, scalar, reference.generator)
    modmuls = reference.field.counter.count("modmul")
    inversions = reference.field.counter.count("modinv")

    cycles_per_modmul = PAPER_CONFIG.expected_iteration_cycles
    total_cycles = modmuls * cycles_per_modmul
    latency_ms = total_cycles / (PAPER_CONFIG.frequency_mhz * 1e3)

    rows = [
        ("scalar bit length", scalar.bit_length()),
        ("field multiplications", modmuls),
        ("field inversions", inversions),
        ("cycles per multiplication", cycles_per_modmul),
        ("total ModSRAM cycles", total_cycles),
        ("projected latency (ms)", round(latency_ms, 3)),
    ]
    print(render_table(("quantity", "value"), rows,
                       title="Projected k*G on ModSRAM (BN254, double-and-add)"))
    print()


def main() -> None:
    run_point_operations_on_modsram()
    project_scalar_multiplication_latency()


if __name__ == "__main__":
    main()
