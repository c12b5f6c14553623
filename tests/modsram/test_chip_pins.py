"""Pinned digests of the chip's placement, schedules and execution.

The values were recorded while flat streams and workload graphs were
placed by two separate copies of the finish-time-greedy rule, and
reported in two schedule records.  However the placement is shared, none
of them may move.  Each schedule is hashed by named quantity rather than
by ``as_dict()``, so a record may gain fields without moving a pin:
operation, macros, jobs, per-macro jobs and busy cycles, makespan,
refills, reuse rate, utilization, latency and throughput, plus critical
path and depth for graphs.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.dse.evaluate import evaluate_design_point
from repro.dse.spec import default_sweep_spec
from repro.experiments import get_experiment
from repro.modsram import Chip, ChipScheduler, ModSRAMConfig, PAPER_CONFIG
from repro.workloads import (
    ecdsa_sign_graph,
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_graph,
    ntt_jobs,
    scalar_multiplication_jobs,
)
from repro.workloads.builders import _graph, _msm

MACRO_COUNTS = (1, 2, 3, 4, 8)
POLICIES = ("lut-aware", "round-robin")

STREAMS = {
    "ecdsa-sign": lambda: ecdsa_sign_jobs(256, signatures=2),
    "ntt": lambda: ntt_jobs(1024),
    "msm": lambda: msm_jobs(32, scalar_bits=64),
    "scalar-mult": lambda: scalar_multiplication_jobs(64),
}

GRAPHS = {
    "ecdsa-sign": lambda: ecdsa_sign_graph(64, signatures=2),
    "ntt": lambda: ntt_graph(256),
    # The MSM's dependency view, which the builders keep no public
    # function for.
    "msm": lambda: _graph("msm[16]", _msm(16, 0, 32, "msm"), ""),
    "ntt-chain": lambda: ntt_graph(64).linearized(),
}

#: Operand widths of the ``Chip.multiply`` sequences.
CHIP_WIDTHS = (16, 32, 64)


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def _modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def schedule_line(schedule):
    """A schedule's named quantities, in a fixed order."""
    return (
        schedule.operation,
        schedule.macros,
        schedule.jobs,
        schedule.per_macro_jobs,
        schedule.per_macro_busy_cycles,
        schedule.makespan_cycles,
        schedule.lut_refills,
        schedule.lut_reuse_rate,
        schedule.utilization,
        schedule.latency_ms,
        schedule.throughput_mops,
    )


def graph_line(schedule):
    """:func:`schedule_line` plus the graph-only quantities."""
    return schedule_line(schedule) + (
        schedule.critical_path_cycles,
        schedule.depth,
    )


def _multiply_calls(bits: int):
    """40 calls: two moduli, each with a small pool of shared multiplicands."""
    rng = random.Random(f"chip-multiply/{bits}")
    calls = []
    for modulus in (_modulus(rng, bits), _modulus(rng, bits - 1)):
        pool = [rng.randrange(1, modulus) for _ in range(3)]
        calls.extend(
            (rng.randrange(modulus), rng.choice(pool), modulus)
            for _ in range(20)
        )
    return calls


def multiply_digest(bits: int) -> str:
    """Every call's product, report and ``activity()``, then the chip's state."""
    chip = Chip(3, ModSRAMConfig().with_bitwidth(bits))
    lines = []
    for a, b, modulus in _multiply_calls(bits):
        result = chip.multiply(a, b, modulus)
        lines.append((result.product, result.report.as_dict()))
        lines.append(schedule_line(chip.activity()))
    lines.append(chip.stats().as_dict())
    lines.append(chip.energy_report().as_dict())
    return _digest(lines)


PINS_STREAM = {
    "ecdsa-sign": "9d8ff24f394888f5",
    "ntt": "025486425e4d1847",
    "msm": "8bdfa4d9a86fc822",
    "scalar-mult": "4884f03658d43a62",
}

PINS_GRAPH = {
    "ecdsa-sign": "19f5906f12ccd15d",
    "ntt": "5485542575d1db66",
    "msm": "d2041fd118b7f816",
    "ntt-chain": "3803b8cf64fc44bd",
}

PINS_MULTIPLY = {
    16: "2e69b933831524ee",
    32: "da54bc75a6c1c15b",
    64: "8acc5c56f3f00aa1",
}

PINS_CHIP_SCALING = {
    "ecdsa-sign": "0f7b8e5b70daaa0b",
    "scalar-mult": "8b5081f0eab54c08",
    "ntt": "7c8804f323676ef9",
    "msm": "0b3b5178a366897b",
}

PIN_DSE_QUICK = "4500042497d65e3f"


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_stream_schedules_are_pinned(workload):
    lines = [
        schedule_line(
            ChipScheduler(macros, PAPER_CONFIG, policy=policy).schedule(
                STREAMS[workload](), operation=workload
            )
        )
        for policy in POLICIES
        for macros in MACRO_COUNTS
    ]
    assert _digest(lines) == PINS_STREAM[workload]


@pytest.mark.parametrize("workload", sorted(GRAPHS))
def test_graph_schedules_are_pinned(workload):
    graph = GRAPHS[workload]()
    lines = [
        graph_line(ChipScheduler(macros, PAPER_CONFIG).schedule_graph(graph))
        for macros in MACRO_COUNTS
    ]
    assert _digest(lines) == PINS_GRAPH[workload]


@pytest.mark.parametrize("bits", CHIP_WIDTHS)
def test_chip_multiply_sequence_is_pinned(bits):
    assert multiply_digest(bits) == PINS_MULTIPLY[bits]


@pytest.mark.parametrize("workload", sorted(PINS_CHIP_SCALING))
def test_quick_chip_scaling_payload_is_pinned(workload):
    definition = get_experiment("chip-scaling")
    payload = definition.execute({"workload": workload}, quick=True).result.to_dict()
    assert _digest([payload]) == PINS_CHIP_SCALING[workload]


def test_quick_dse_sweep_points_are_pinned():
    sweep = default_sweep_spec().with_fixed(workload_ops=128).quick(per_axis=2)
    lines = [evaluate_design_point(point).to_dict() for point in sweep.expand()]
    assert len(lines) == 32
    assert _digest(lines) == PIN_DSE_QUICK
