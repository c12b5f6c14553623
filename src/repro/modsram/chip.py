"""Multi-macro chip model: scale-out of the ModSRAM macro.

§5.2 of the paper sizes one 64-row macro so a point operation's operands
stay resident while its multiplications execute; this module generalises
that scheduling argument from one macro to a *chip* of ``N`` macros.  A
workload arrives as a stream or a dependency graph of
:class:`MultiplicationJob`\\ s — each naming the multiplicand whose radix-4
LUT it needs — and the chip-level scheduler places every job on the macro
where it finishes earliest, which makes the placement LUT-reuse-aware: a
macro whose resident LUT already matches skips the refill and therefore
usually wins the placement race.

Every dispatch path drives one placement state.  Per macro it holds the
cycle the macro frees up, its busy cycles, its jobs and its resident LUT
key, plus the refills charged so far; every path reports one
:class:`ChipSchedule`:

* :class:`ChipScheduler` schedules *abstract* streams and graphs (no
  operand values) with the analytical cost algebra, on a fresh state per
  call — this is what the ``chip-scaling`` experiment runs at 2^16-NTT
  scale;
* :class:`Chip` *executes* real multiplications and operand-carrying
  graphs on ``N`` analytical-tier macros (the substrate behind the
  ``modsram-chip`` engine backend), on one state for its lifetime,
  charging each macro the exact per-multiplication cycle report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.modsram.analytical import AnalyticalCostModel, AnalyticalModSRAM
from repro.modsram.config import ModSRAMConfig
from repro.modsram.geometry import MacroGeometry
from repro.modsram.report import MultiplicationResult
from repro.sram.stats import ArrayStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.workloads.graph import WorkloadGraph

__all__ = [
    "MultiplicationJob",
    "ChipSchedule",
    "ChipScheduler",
    "ChipGraphRun",
    "Chip",
    "SCHEDULER_POLICIES",
]

#: Placement policies the chip scheduler implements.
#: ``lut-aware`` is the paper-motivated finish-time-greedy rule;
#: ``round-robin`` is the residency-blind baseline the DSE sweeps use to
#: quantify what LUT-aware placement buys at each design point.
SCHEDULER_POLICIES = ("lut-aware", "round-robin")


@dataclass(frozen=True)
class MultiplicationJob:
    """One modular multiplication of a workload stream.

    ``multiplicand`` is the LUT-reuse key: two consecutive jobs on the same
    macro with equal keys share the resident radix-4 LUT.  ``tag`` is a free
    annotation naming the originating operation (``"double[17]"``,
    ``"ntt:s3"``, ...) for diagnostics.
    """

    multiplicand: str
    tag: str = ""


@dataclass(frozen=True)
class ChipSchedule:
    """Outcome of dispatching a stream or a graph across a chip's macros.

    A schedule distinguishes *busy* cycles from the *makespan*: in a graph
    a macro may sit idle waiting for a dependency, so ``utilization``
    measures how much of the chip's capacity the dependency structure let
    the scheduler actually use.  A flat stream has no dependencies: it
    reports depth 1 (0 when empty) and its longest job as the critical
    path, so a dependency-free graph schedules to the same record.
    """

    operation: str
    macros: int
    jobs: int
    per_macro_jobs: Tuple[int, ...]
    per_macro_busy_cycles: Tuple[int, ...]
    makespan_cycles: int
    #: Cost of the longest dependency chain — the makespan lower bound no
    #: macro count can beat.
    critical_path_cycles: int
    #: Topological depth of the graph (levels of the ready-front dispatch).
    depth: int
    lut_refills: int
    frequency_mhz: float

    @property
    def total_busy_cycles(self) -> int:
        """Cycles of actual work summed over every macro."""
        return sum(self.per_macro_busy_cycles)

    @property
    def utilization(self) -> float:
        """Busy fraction of the chip over the makespan (1.0 = no idling)."""
        if not self.jobs or self.makespan_cycles == 0:
            return 0.0
        return self.total_busy_cycles / (self.macros * self.makespan_cycles)

    @property
    def lut_reuse_rate(self) -> float:
        """Fraction of jobs that reused a resident radix-4 LUT."""
        if not self.jobs:
            return 0.0
        return 1.0 - self.lut_refills / self.jobs

    @property
    def latency_ms(self) -> float:
        """Wall-clock makespan at the macro clock."""
        return self.makespan_cycles / (self.frequency_mhz * 1e6) * 1e3

    @property
    def throughput_mops(self) -> float:
        """Modular multiplications per second (in millions) at the clock."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.jobs / (self.makespan_cycles / (self.frequency_mhz * 1e6)) / 1e6

    def as_dict(self) -> Dict[str, object]:
        """Flat summary for reports and JSON payloads."""
        return {
            "operation": self.operation,
            "macros": self.macros,
            "jobs": self.jobs,
            "per_macro_jobs": list(self.per_macro_jobs),
            "per_macro_busy_cycles": list(self.per_macro_busy_cycles),
            "makespan_cycles": self.makespan_cycles,
            "critical_path_cycles": self.critical_path_cycles,
            "depth": self.depth,
            "total_busy_cycles": self.total_busy_cycles,
            "lut_refills": self.lut_refills,
            "lut_reuse_rate": self.lut_reuse_rate,
            "utilization": self.utilization,
            "latency_ms": self.latency_ms,
            "throughput_mops": self.throughput_mops,
            "frequency_mhz": self.frequency_mhz,
        }


class _Placement:
    """Placement state of one chip, shared by every dispatch path.

    Per macro: the cycle it frees up, its busy cycles, its job count and
    the key of its resident LUT; plus the LUT refills and the longest job
    charged so far.
    """

    def __init__(
        self,
        macros: int,
        iteration_cycles: int,
        refill_cycles: int,
        policy: str = "lut-aware",
    ) -> None:
        if macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        if policy not in SCHEDULER_POLICIES:
            raise ConfigurationError(
                f"unknown scheduler policy {policy!r}; choose from "
                f"{SCHEDULER_POLICIES}"
            )
        self.iteration_cycles = iteration_cycles
        self.refill_cycles = refill_cycles
        self.round_robin = policy == "round-robin"
        self.free = [0] * macros
        self.busy = [0] * macros
        self.jobs = [0] * macros
        self.resident: List[Optional[str]] = [None] * macros
        self.refills = 0
        self.longest = 0
        self._cursor = 0

    def place(self, key: str, ready: int = 0) -> Tuple[int, int, int]:
        """Choose the macro for one job that may start at cycle ``ready``.

        Returns ``(macro, start, cycles)``: the chosen macro, the cycle the
        job starts there and its nominal cost (the main loop, plus the
        refill unless the macro's resident LUT matches ``key``).  Under
        ``lut-aware`` the job lands where it finishes earliest, so a macro
        holding the LUT wins unless it frees up more than one refill after
        another; ties break toward the reusing macro, then the lowest
        index.  Under ``round-robin`` it lands on the next macro in index
        order regardless of residency.  Nothing is charged until
        :meth:`commit`.
        """
        free = self.free
        resident = self.resident
        warm = self.iteration_cycles
        cold = warm + self.refill_cycles
        if self.round_robin:
            best = self._cursor
            self._cursor = (best + 1) % len(free)
            cycles = warm if resident[best] == key else cold
            return best, max(free[best], ready), cycles
        best = best_finish = None
        best_reused = False
        for macro, free_at in enumerate(free):
            reused = resident[macro] == key
            finish = (free_at if free_at > ready else ready) + (
                warm if reused else cold
            )
            if (
                best_finish is None
                or finish < best_finish
                or (finish == best_finish and reused and not best_reused)
            ):
                best, best_finish, best_reused = macro, finish, reused
        cycles = warm if best_reused else cold
        return best, best_finish - cycles, cycles

    def commit(self, macro: int, key: str, start: int, cycles: int) -> int:
        """Charge one job to ``macro`` from ``start``; returns its finish.

        ``cycles`` is the nominal cost :meth:`place` returned or the
        cycles the macro measured; either way ``key``'s LUT is resident
        afterwards, and the job counts as a refill unless it already was.
        """
        finish = start + cycles
        self.free[macro] = finish
        self.busy[macro] += cycles
        self.jobs[macro] += 1
        if self.resident[macro] != key:
            self.resident[macro] = key
            self.refills += 1
        if cycles > self.longest:
            self.longest = cycles
        return finish

    def record(self, operation: str, frequency_mhz: float) -> ChipSchedule:
        """Everything committed so far, read as one flat stream."""
        jobs = sum(self.jobs)
        return ChipSchedule(
            operation=operation,
            macros=len(self.free),
            jobs=jobs,
            per_macro_jobs=tuple(self.jobs),
            per_macro_busy_cycles=tuple(self.busy),
            makespan_cycles=max(self.free),
            critical_path_cycles=self.longest,
            depth=1 if jobs else 0,
            lut_refills=self.refills,
            frequency_mhz=frequency_mhz,
        )


def _dispatch_graph(
    state: _Placement,
    graph: "WorkloadGraph",
    operation: Optional[str],
    frequency_mhz: float,
    execute=None,
    placement_key=None,
) -> ChipSchedule:
    """Dependency-aware list scheduling of one graph on ``state``.

    Nodes enter the ready heap when every dependency has finished, ordered
    by ``(ready time, -priority, index)``; :meth:`_Placement.place` then
    picks each popped node's macro, so a node never starts before its
    dependencies finish.  For a dependency-free graph with default
    priorities every node is ready at cycle 0 and pops in insertion order,
    which is exactly the flat stream's dispatch.

    ``execute(node, macro)``, when given, runs the node on that macro and
    returns its *measured* cycles, which replace the nominal charge (the
    placement decision itself always uses the nominal cost, mirroring
    :meth:`Chip.multiply`).  ``placement_key(node)``, when given,
    overrides the LUT-residency key (execution paths key on the resolved
    multiplicand *value* so the schedule's reuse accounting matches what
    the macros actually measure).  The returned schedule counts only this
    graph's jobs, busy cycles and refills.
    """
    nodes = graph.nodes
    count = len(nodes)
    dependents = graph.dependents()
    remaining = [len(node.deps) for node in nodes]
    jobs_before, busy_before = list(state.jobs), list(state.busy)
    refills_before = state.refills
    place, commit = state.place, state.commit
    finish = [0] * count
    critical = [0] * count

    ready = [(0, -node.priority, node.index) for node in nodes if not node.deps]
    heapq.heapify(ready)
    while ready:
        ready_time, _, index = heapq.heappop(ready)
        node = nodes[index]
        key = node.multiplicand if placement_key is None else placement_key(node)
        macro, start, cycles = place(key, ready_time)
        if execute is not None:
            cycles = execute(node, macro)
        finish[index] = commit(macro, key, start, cycles)
        critical[index] = cycles + max(
            (critical[dep] for dep in node.deps), default=0
        )
        for dependent in dependents[index]:
            remaining[dependent] -= 1
            if remaining[dependent] == 0:
                ready_at = max(
                    (finish[dep] for dep in nodes[dependent].deps), default=0
                )
                heapq.heappush(
                    ready, (ready_at, -nodes[dependent].priority, dependent)
                )

    per_macro_jobs = tuple(
        after - before for after, before in zip(state.jobs, jobs_before)
    )
    if sum(per_macro_jobs) != count:
        raise ConfigurationError(
            f"graph dispatch scheduled {sum(per_macro_jobs)} of {count} "
            "nodes; the dependency structure is not a DAG"
        )
    return ChipSchedule(
        operation=operation or getattr(graph, "name", "graph"),
        macros=len(state.free),
        jobs=count,
        per_macro_jobs=per_macro_jobs,
        per_macro_busy_cycles=tuple(
            after - before for after, before in zip(state.busy, busy_before)
        ),
        makespan_cycles=max(finish, default=0),
        critical_path_cycles=max(critical, default=0),
        depth=graph.depth,
        lut_refills=state.refills - refills_before,
        frequency_mhz=frequency_mhz,
    )


class ChipScheduler:
    """Schedules abstract multiplication streams and graphs onto N macros.

    Uses the analytical cost algebra
    (:class:`~repro.modsram.analytical.AnalyticalCostModel`): every job
    costs the main-loop cycles plus, when the resident LUT does not match,
    the radix-4 refill — the single-macro
    :class:`~repro.modsram.scheduler.PointOperationScheduler`'s charges,
    generalised to a pool of macros.  Every call starts from an idle chip.
    """

    def __init__(
        self,
        macros: int = 4,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
        policy: str = "lut-aware",
    ) -> None:
        self.macros = macros
        self.config = config or ModSRAMConfig()
        self.policy = policy
        self.cost_model = AnalyticalCostModel(self.config, geometry)
        self._placement()  # rejects a bad macro count or policy up front

    def _placement(self) -> _Placement:
        """The placement state of an idle chip."""
        return _Placement(
            self.macros,
            self.cost_model.iteration_cycles(),
            self.cost_model.radix4_refill_cycles(),
            self.policy,
        )

    def schedule(
        self,
        jobs: Iterable[MultiplicationJob],
        operation: str = "stream",
    ) -> ChipSchedule:
        """Dispatch one stream; returns the chip-level schedule summary."""
        state = self._placement()
        place, commit = state.place, state.commit
        for job in jobs:
            key = job.multiplicand
            macro, start, cycles = place(key)
            commit(macro, key, start, cycles)
        return state.record(operation, self.config.frequency_mhz)

    def schedule_graph(
        self,
        graph: "WorkloadGraph",
        operation: Optional[str] = None,
    ) -> ChipSchedule:
        """Dependency-aware dispatch of one workload graph.

        Ready fronts (nodes whose dependencies have finished) are placed
        by the scheduler's policy across the macros; a node never starts
        before its dependencies complete, so — unlike :meth:`schedule`,
        which assumes a stream of independent jobs — the resulting
        makespan is *valid* for dependent workloads.  A dependency-free
        graph with default priorities schedules exactly like its flat
        stream.
        """
        return _dispatch_graph(
            self._placement(), graph, operation, self.config.frequency_mhz
        )


@dataclass(frozen=True)
class ChipGraphRun:
    """Products plus schedule of one graph executed on a :class:`Chip`."""

    schedule: ChipSchedule
    #: Product of every node, indexed like the graph's nodes.
    values: Tuple[int, ...]
    #: Node indices nothing depends on (the request's results).
    sinks: Tuple[int, ...]

    @property
    def results(self) -> Tuple[int, ...]:
        """The sink products, in node order."""
        return tuple(self.values[index] for index in self.sinks)


class Chip:
    """``N`` analytical-tier macros executing real multiplications.

    The chip keeps one placement state for its lifetime: every
    :meth:`multiply` and every node of :meth:`run_graph` is placed
    LUT-reuse-aware on it (the key is the actual multiplicand value and
    modulus), executed on that macro's :class:`AnalyticalModSRAM`, and
    charged the macro's exact cycle report.  Work therefore queues behind
    earlier work and reuses the LUTs it left resident, whichever call
    submitted it.  :meth:`activity` summarises everything executed in the
    same :class:`ChipSchedule` shape the abstract scheduler produces.
    """

    tier = AnalyticalModSRAM.tier

    def __init__(
        self,
        macros: int = 4,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
    ) -> None:
        base = config or ModSRAMConfig()
        first = AnalyticalModSRAM(base, geometry)
        # Executable macros apply the geometry to their config, so the
        # chip-level view (config, cost model) follows the first macro.
        self.config = first.config
        self.cost_model = first.cost_model
        # The placement state rejects a bad macro count before the other
        # macros are built.
        self._state = _Placement(
            macros,
            self.cost_model.iteration_cycles(),
            self.cost_model.lut_fill_cycles(),
        )
        self._macros = [first] + [
            AnalyticalModSRAM(base, geometry) for _ in range(1, macros)
        ]

    @property
    def macros(self) -> int:
        """Number of macros on the chip."""
        return len(self._macros)

    def macro(self, index: int) -> AnalyticalModSRAM:
        """Direct access to one macro (tests, diagnostics)."""
        return self._macros[index]

    def multiply(self, a: int, b: int, modulus: int) -> MultiplicationResult:
        """Place and execute one multiplication on the best macro."""
        key = f"{b:#x}@{modulus:#x}"
        macro, start, _ = self._state.place(key)
        result = self._macros[macro].multiply(a, b, modulus)
        report = result.report
        self._state.commit(
            macro, key, start, report.iteration_cycles + report.precompute_cycles
        )
        return result

    def run_graph(
        self,
        graph: "WorkloadGraph",
        modulus: int,
        operation: Optional[str] = None,
    ) -> ChipGraphRun:
        """Execute an operand-carrying graph across the chip's macros.

        Placement is the same dependency-aware, LUT-residency-aware rule
        as :meth:`ChipScheduler.schedule_graph`, on the chip's own state:
        a root starts once its macro is free, and a LUT an earlier call
        left resident counts as reused.  Every node then runs on its
        macro's :class:`AnalyticalModSRAM` and the *measured* cycle report
        replaces the nominal charge (mirroring :meth:`multiply`).  The
        schedule counts this graph's jobs, busy cycles and refills; its
        makespan is the cycle, on the chip's timeline, at which the
        graph's last node finishes.  Products are bit-identical to
        evaluating the nodes one by one — placement changes the timing,
        never the arithmetic.
        """
        if not getattr(graph, "executable", False):
            raise ConfigurationError(
                f"graph {getattr(graph, 'name', '?')!r} is structural "
                "(nodes without operands); only operand-carrying graphs "
                "can be executed"
            )
        values: List[Optional[int]] = [None] * len(graph.nodes)

        def resolve(operand) -> int:
            if hasattr(operand, "node"):
                resolved = values[operand.node]
                assert resolved is not None  # dispatch order guarantees it
                return resolved
            return int(operand) % modulus

        def execute(node, macro: int) -> int:
            result = self._macros[macro].multiply(
                resolve(node.a), resolve(node.b), modulus
            )
            values[node.index] = result.product
            return (
                result.report.iteration_cycles
                + result.report.precompute_cycles
            )

        def placement_key(node) -> str:
            # Key residency on the actual multiplicand value (mirroring
            # :meth:`multiply`), so the schedule's reuse accounting agrees
            # with the precompute cycles the macros measure.
            return f"{resolve(node.b):#x}@{modulus:#x}"

        schedule = _dispatch_graph(
            self._state,
            graph,
            operation,
            self.config.frequency_mhz,
            execute=execute,
            placement_key=placement_key,
        )
        return ChipGraphRun(
            schedule=schedule,
            values=tuple(value for value in values),  # type: ignore[arg-type]
            sinks=tuple(graph.sinks()),
        )

    def activity(self, operation: str = "executed") -> ChipSchedule:
        """Schedule summary of everything executed so far.

        Every multiplication counts, whether :meth:`multiply` or
        :meth:`run_graph` submitted it, read as one flat stream: the
        makespan is when the busiest macro frees up and the critical path
        is the longest single job.
        """
        return self._state.record(operation, self.config.frequency_mhz)

    def stats(self):
        """Chip-wide access profile: every macro's stats merged."""
        merged = ArrayStats()
        for macro in self._macros:
            merged.accumulate(macro.host.stats)
        return merged

    def energy_report(self):
        """Energy implied by everything executed so far, chip-wide."""
        register_bits = sum(
            macro.host.datapath.stats.register_bits_written
            for macro in self._macros
        )
        return self.config.energy.from_stats(self.stats(), register_bits)
