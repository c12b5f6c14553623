"""Tests for graph-aware chip scheduling and chip graph execution."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.modsram import (
    SCHEDULER_POLICIES,
    AnalyticalCostModel,
    Chip,
    ChipScheduler,
    ModSRAMConfig,
    MultiplicationJob,
    PAPER_CONFIG,
)
from repro.workloads import (
    WorkloadGraph,
    ecdsa_sign_graph,
    ntt_graph,
    product_tree_graph,
)


def flat_graph(keys) -> WorkloadGraph:
    graph = WorkloadGraph("flat")
    for key in keys:
        graph.add(key)
    return graph


class TestFlatParity:
    """A dependency-free graph must schedule exactly like the flat stream."""

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.sampled_from([f"k{i}" for i in range(6)]), max_size=40),
        macros=st.integers(1, 8),
        policy=st.sampled_from(SCHEDULER_POLICIES),
    )
    @example(
        keys=[f"k{i % 5}" for i in range(37)] + ["k0"] * 3,
        macros=4,
        policy="lut-aware",
    )
    def test_placement_parity(self, keys, macros, policy):
        scheduler = ChipScheduler(macros, PAPER_CONFIG, policy=policy)
        graph = flat_graph(keys)
        jobs = (MultiplicationJob(n.multiplicand, n.tag) for n in graph.nodes)
        assert scheduler.schedule_graph(graph) == scheduler.schedule(
            jobs, operation=graph.name
        )

    def test_chain_graph_is_serial(self):
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        chain = flat_graph(["a", "b", "a"]).linearized()
        schedule = scheduler.schedule_graph(chain)
        model = AnalyticalCostModel(PAPER_CONFIG)
        # Serialized: makespan is the sum of every job's cost, and three
        # quarters of the chip idles.
        assert schedule.makespan_cycles == (
            3 * model.iteration_cycles() + 3 * model.radix4_refill_cycles()
        )
        assert schedule.utilization == pytest.approx(0.25)


class TestGraphAwareScheduling:
    def test_round_robin_applies_to_graphs(self):
        chain = flat_graph(["a"] * 8).linearized()
        aware = ChipScheduler(4, PAPER_CONFIG).schedule_graph(chain)
        blind = ChipScheduler(
            4, PAPER_CONFIG, policy="round-robin"
        ).schedule_graph(chain)
        model = AnalyticalCostModel(PAPER_CONFIG)
        # LUT-aware keeps the chain on the macro holding its LUT; the
        # blind baseline deals it out and refills every macro once.
        assert aware.per_macro_jobs == (8, 0, 0, 0)
        assert aware.lut_refills == 1
        assert blind.per_macro_jobs == (2, 2, 2, 2)
        assert blind.lut_refills == 4
        # Wherever a node lands, it waits for its predecessor.
        assert blind.makespan_cycles == (
            8 * model.iteration_cycles() + 4 * model.radix4_refill_cycles()
        )

    def test_ntt_beats_the_flat_stream_at_four_macros(self):
        graph = ntt_graph(256)
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        aware = scheduler.schedule_graph(graph)
        flat = scheduler.schedule_graph(graph.linearized())
        assert aware.makespan_cycles < flat.makespan_cycles
        assert aware.utilization > flat.utilization
        assert flat.makespan_cycles / aware.makespan_cycles >= 2.0

    def test_ecdsa_batch_beats_the_flat_stream(self):
        graph = ecdsa_sign_graph(32, signatures=4)
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        aware = scheduler.schedule_graph(graph)
        flat = scheduler.schedule_graph(graph.linearized())
        assert flat.makespan_cycles / aware.makespan_cycles >= 2.0

    def test_critical_path_bounds_the_makespan(self):
        graph = ntt_graph(64)
        for macros in (1, 2, 8):
            schedule = ChipScheduler(macros, PAPER_CONFIG).schedule_graph(graph)
            assert schedule.makespan_cycles >= schedule.critical_path_cycles
            assert schedule.depth == graph.depth

    def test_dependencies_are_never_violated(self):
        # With more macros than width, the makespan floors at the critical
        # path — dependencies forbid going lower.
        graph = ntt_graph(16)  # width 8
        wide = ChipScheduler(32, PAPER_CONFIG).schedule_graph(graph)
        assert wide.makespan_cycles >= wide.critical_path_cycles
        assert wide.jobs == len(graph)

    def test_priority_orders_the_ready_front(self):
        graph = WorkloadGraph("prio")
        graph.add("low", priority=0)
        graph.add("high", priority=5)
        schedule = ChipScheduler(1, PAPER_CONFIG).schedule_graph(graph)
        # Both run on the single macro; the high-priority node goes first,
        # so the refill pattern is high-then-low (2 refills either way) —
        # but the schedule completes and accounts both.
        assert schedule.jobs == 2
        assert schedule.lut_refills == 2

    def test_empty_graph(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule_graph(
            WorkloadGraph("empty")
        )
        assert schedule.jobs == 0
        assert schedule.makespan_cycles == 0
        assert schedule.utilization == 0.0
        assert schedule.throughput_mops == 0.0

    def test_as_dict_round_trips_the_key_quantities(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule_graph(ntt_graph(16))
        data = schedule.as_dict()
        assert data["makespan_cycles"] == schedule.makespan_cycles
        assert data["critical_path_cycles"] == schedule.critical_path_cycles
        assert data["utilization"] == schedule.utilization
        assert data["depth"] == 4


class TestChipGraphExecution:
    def test_products_are_bit_identical(self, rng):
        modulus = 65521
        values = [rng.randrange(1, modulus) for _ in range(32)]
        graph = product_tree_graph(values)
        config = ModSRAMConfig().with_bitwidth(16)

        aware = Chip(4, config).run_graph(graph, modulus)
        chain = Chip(4, config).run_graph(graph.linearized(), modulus)
        reference = 1
        for value in values:
            reference = reference * value % modulus

        assert aware.values == chain.values
        assert aware.results == (reference,)
        assert aware.schedule.makespan_cycles < chain.schedule.makespan_cycles

    def test_measured_cycles_replace_the_nominal_charge(self, rng):
        modulus = 65521
        graph = product_tree_graph([3, 5, 7, 11])
        run = Chip(2, ModSRAMConfig().with_bitwidth(16)).run_graph(
            graph, modulus
        )
        assert run.schedule.jobs == 3
        assert run.schedule.total_busy_cycles > 0
        assert sum(run.schedule.per_macro_jobs) == 3

    def test_structural_graph_is_rejected(self):
        chip = Chip(2, ModSRAMConfig().with_bitwidth(16))
        with pytest.raises(ConfigurationError, match="structural"):
            chip.run_graph(ntt_graph(8), 65521)


#: A modulus that fills a 32-bit macro.
P32 = (1 << 32) - 5


def _pair(b: int) -> WorkloadGraph:
    """Two independent nodes sharing the multiplicand ``b``."""
    graph = WorkloadGraph("pair")
    graph.add("b", a=5, b=b)
    graph.add("b", a=7, b=b)
    return graph


def _nominal_busy(chip: Chip, schedule) -> int:
    model = chip.cost_model
    return (
        schedule.jobs * model.iteration_cycles()
        + schedule.lut_refills * model.lut_fill_cycles()
    )


def _record_reports(chip: Chip):
    """Log every cycle report each macro measures, per macro."""
    logs = [[] for _ in range(chip.macros)]
    for index, log in enumerate(logs):
        macro = chip.macro(index)

        def multiply(a, b, modulus, inner=macro.multiply, log=log):
            result = inner(a, b, modulus)
            log.append(result.report)
            return result

        macro.multiply = multiply
    return logs


class TestUsedChip:
    """Graphs run on the chip's own state, after whatever ran before."""

    def test_a_resident_lut_is_reused_by_a_graph(self):
        chip = Chip(1, ModSRAMConfig().with_bitwidth(32))
        first = chip.multiply(3, 12345, P32).report
        run = chip.run_graph(_pair(12345), P32)
        assert run.schedule.lut_refills == 0
        assert run.schedule.total_busy_cycles == 2 * first.iteration_cycles
        # The graph queued behind the multiplication on the one macro.
        assert run.schedule.makespan_cycles == (
            first.iteration_cycles + first.precompute_cycles
            + run.schedule.total_busy_cycles
        )

    @pytest.mark.parametrize("before", ["multiply", "run_graph"])
    def test_busy_cycles_match_jobs_and_refills(self, before, rng):
        chip = Chip(2, ModSRAMConfig().with_bitwidth(32))
        leaves = [rng.randrange(1, P32) for _ in range(12)]
        # Either way, both macros are left holding ``leaves[0]``'s LUT.
        if before == "multiply":
            for leaf in leaves:
                chip.multiply(leaf, leaves[0], P32)
        else:
            chip.run_graph(_pair(leaves[0]), P32)
        for graph in (_pair(leaves[0]), product_tree_graph(leaves)):
            schedule = chip.run_graph(graph, P32).schedule
            assert schedule.jobs == len(graph)
            assert schedule.total_busy_cycles == _nominal_busy(chip, schedule)
        activity = chip.activity()
        assert activity.total_busy_cycles == _nominal_busy(chip, activity)

    def test_activity_counts_every_executed_multiplication(self, rng):
        chip = Chip(3, ModSRAMConfig().with_bitwidth(32))
        logs = _record_reports(chip)
        leaves = [rng.randrange(1, P32) for _ in range(16)]
        for leaf in leaves[:5]:
            chip.multiply(leaf, 12345, P32)
        chip.run_graph(product_tree_graph(leaves), P32)
        chip.run_graph(_pair(12345), P32)
        chip.multiply(3, leaves[1], P32)

        activity = chip.activity()
        assert activity.jobs == 5 + 15 + 2 + 1
        assert activity.per_macro_jobs == tuple(len(log) for log in logs)
        assert activity.per_macro_busy_cycles == tuple(
            sum(r.iteration_cycles + r.precompute_cycles for r in log)
            for log in logs
        )
        assert activity.lut_refills == sum(
            not report.lut_reused for log in logs for report in log
        )
