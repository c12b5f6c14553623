"""The ``sim-paper`` workload: the 256-bit paper configuration simulated.

Each round co-simulates one seeded operand pair on the cycle tier and the
RTL tier (``build_simulator("cycle")`` / ``build_simulator("hdl")``),
checks products against ``a * b % p`` and both cycle reports against the
analytical closed form field by field, then runs one seeded executable
product tree on ``Chip(4, PAPER_CONFIG).run_graph``.  The pair list opens
with ``headline.py``'s paper-point pair, which must give the paper's 767
main-loop cycles.  The tree size makes the three parts cost about a
third of the host time each.

Host time is what the simulators take to run; the modelled cycle counts
are simulated time and must repeat exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from harness import (
    Calibrator,
    Ledger,
    PassResult,
    check_tree,
    cpu_seconds,
    freeze_inputs,
    median,
    peak_rss_mb,
    ratio,
    tail_p95,
    timed,
)

#: The paper's main-loop cycle count for one 256-bit multiplication.
PAPER_MAIN_LOOP_CYCLES = 767
CURVES = ("bn254", "secp256k1", "p256")
PAIRS = 32
TREE_LEAVES = 96
MACROS = 4


@dataclass
class Inputs:
    #: ``(p, a, b)``; the first is the paper point.
    pairs: List[Tuple[int, int, int]]
    tree_modulus: int
    tree_leaves: List[int]


def make_inputs(seed: int) -> Inputs:
    from repro.ecc import CURVE_SPECS
    from repro.modsram.config import PAPER_CONFIG

    rng = random.Random(seed)
    moduli = [CURVE_SPECS[name].field_modulus for name in CURVES]
    p = moduli[0]
    pairs = [(p, (p * 5) // 7, (p * 3) // 11)]
    # Without full-range extension the macro takes a < 2^(2*iterations-1).
    a_limit = 1 << (2 * PAPER_CONFIG.iterations - 1)
    for index in range(PAIRS - 1):
        q = moduli[index % len(moduli)]
        pairs.append((q, rng.randrange(min(q, a_limit)), rng.randrange(q)))
    return Inputs(pairs, p, [rng.randrange(1, p) for _ in range(TREE_LEAVES)])


@dataclass
class System:
    cycle: object
    hdl: object
    analytical: object
    elaborate_s: float
    main_loop_cycles: int


def _hdl_events(hdl) -> Optional[int]:
    """The RTL simulator's event count, where it exposes one."""
    simulator = getattr(getattr(hdl, "macro", None), "sim", None)
    return getattr(simulator, "events", None)


def _cosimulate(system: System, ledger: Ledger, p: int, a: int, b: int):
    """One pair on all three tiers, checked; returns the tier timings."""
    clock = time.perf_counter
    began = clock()
    reference = system.analytical.multiply(a, b, p)
    middle = clock()
    cycle = system.cycle.multiply(a, b, p)
    late = clock()
    rtl = system.hdl.multiply(a, b, p)
    ended = clock()
    broken = []
    if not cycle.product == rtl.product == reference.product == a * b % p:
        broken.append("product")
    expected = reference.report.as_dict()
    if cycle.report.as_dict() != expected or rtl.report.as_dict() != expected:
        broken.append("cycle_report")
    ledger.operation(broken, f"pair mod {p:#x}")
    return middle - began, late - middle, ended - late, rtl.report.iteration_cycles


def _setup(inputs: Inputs, ledger: Ledger) -> System:
    from repro.modsram.config import PAPER_CONFIG
    from repro.modsram.fidelity import build_simulator

    cycle = build_simulator("cycle", PAPER_CONFIG)
    began = time.perf_counter()
    hdl = build_simulator("hdl", PAPER_CONFIG)
    elaborate_s = time.perf_counter() - began
    system = System(
        cycle, hdl, build_simulator("analytical", PAPER_CONFIG), elaborate_s, 0
    )
    p, a, b = inputs.pairs[0]
    system.main_loop_cycles = _cosimulate(system, ledger, p, a, b)[3]
    ledger.check(
        system.main_loop_cycles == PAPER_MAIN_LOOP_CYCLES,
        "paper_point",
        f"{system.main_loop_cycles} main-loop cycles, paper says "
        f"{PAPER_MAIN_LOOP_CYCLES}",
    )
    return system


def _measure(
    system: System, inputs: Inputs, seconds: float, traced: bool,
    ledger: Ledger, calibrator: Calibrator,
) -> PassResult:
    from repro.modsram.chip import Chip
    from repro.modsram.config import PAPER_CONFIG
    from repro.workloads import product_tree_graph

    clock = time.perf_counter
    cpu_before = cpu_seconds()
    events_before = _hdl_events(system.hdl)
    graph = product_tree_graph(inputs.tree_leaves)
    p = inputs.tree_modulus
    analytical: List[float] = []
    cycle: List[float] = []
    rtl: List[float] = []
    chip: List[float] = []
    cosim_latency: List[float] = []
    schedule = None
    deadline = clock() + seconds
    while clock() < deadline:
        q, a, b = inputs.pairs[len(chip) % len(inputs.pairs)]
        spent = _cosimulate(system, ledger, q, a, b)
        began = clock()
        run = Chip(MACROS, PAPER_CONFIG).run_graph(graph, p)
        chip_time = clock() - began
        # Every time is host-scaled (harness.Calibrator), by the speed
        # sampled as the round ends.
        calibrator.tick()
        scale = calibrator.local()
        analytical.append(spent[0] * scale)
        cycle.append(spent[1] * scale)
        rtl.append(spent[2] * scale)
        cosim_latency.append((spent[1] + spent[2]) * scale)
        chip.append(chip_time * scale)
        check_tree(ledger, graph, run.values, p)
        modelled = (
            run.schedule.makespan_cycles,
            run.schedule.utilization,
            run.schedule.lut_reuse_rate,
        )
        if schedule is None:
            schedule = modelled
        ledger.check(
            modelled == schedule,
            "chip_schedule",
            f"round {len(chip)} modelled {modelled}, first round {schedule}",
        )
    # Rates divide each round's work by the median time of its part, so a
    # host slowdown during part of the run does not move them.
    tier_time = median(cycle) + median(rtl)
    round_time = tier_time + median(chip)
    makespan, utilization, reuse = schedule or (0, 0.0, 0.0)
    modelled_counts = {
        "modsram.main_loop_cycles": float(system.main_loop_cycles),
        "modsram.chip.makespan_cycles": float(makespan),
        "modsram.chip.utilization": utilization,
        "modsram.chip.lut_reuse_rate": reuse,
    }
    result = PassResult(
        end_to_end={
            "latency_p50_ms": median(cosim_latency) * 1e3,
            "latency_p95_ms": tail_p95(cosim_latency) * 1e3,
            "saturated_rps": ratio(3, round_time),
            "batch_pairs_per_s": ratio(len(graph), median(chip)),
            "call_mults_per_s": ratio(2, tier_time),
            "sim_mults_per_s": ratio(2 + len(graph), round_time),
        },
        samples={"rounds": len(chip)},
        extras=modelled_counts,
    )
    if traced:
        events_after = _hdl_events(system.hdl)
        events = (
            0 if events_before is None or events_after is None
            else events_after - events_before
        )
        result.layers = {
            **modelled_counts,
            "modsram.cycle_ms_per_mult": median(cycle) * 1e3,
            "modsram.analytical_ms_per_mult": median(analytical) * 1e3,
            "hdl.ms_per_mult": median(rtl) * 1e3,
            "hdl.events_per_s": ratio(events, sum(rtl)),
            "hdl.elaborate_ms": system.elaborate_s * calibrator.scale * 1e3,
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
        "info": {"bitwidth": 256, "macros": MACROS, "tree_leaves": TREE_LEAVES},
        "peak_rss_mb": peak_rss_mb(),
    }
