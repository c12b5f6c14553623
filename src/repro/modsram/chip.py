"""Multi-macro chip model: scale-out of the ModSRAM macro.

§5.2 of the paper sizes one 64-row macro so a point operation's operands
stay resident while its multiplications execute; this module generalises
that scheduling argument from one macro to a *chip* of ``N`` macros.  A
workload arrives as a stream of :class:`MultiplicationJob`\\ s — each naming
the multiplicand whose radix-4 LUT it needs — and the chip-level scheduler
places every job on the macro where it finishes earliest, which makes the
placement LUT-reuse-aware: a macro whose resident LUT already matches skips
the refill and therefore usually wins the placement race.

Two layers share the placement core:

* :class:`ChipScheduler` schedules *abstract* streams (no operand values)
  with the analytical cost algebra — this is what the ``chip-scaling``
  experiment runs at 2^16-NTT scale;
* :class:`Chip` *executes* real multiplications on ``N`` analytical-tier
  macros (the substrate behind the ``modsram-chip`` engine backend),
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
    "GraphSchedule",
    "ChipGraphRun",
    "Chip",
    "SCHEDULER_POLICIES",
]

#: Flat-stream placement policies the chip scheduler implements.
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
    """Outcome of dispatching one stream across a chip's macros."""

    operation: str
    macros: int
    jobs: int
    per_macro_jobs: Tuple[int, ...]
    per_macro_cycles: Tuple[int, ...]
    lut_refills: int
    frequency_mhz: float

    @property
    def makespan_cycles(self) -> int:
        """Cycles until the busiest macro finishes (the chip's latency)."""
        return max(self.per_macro_cycles) if self.per_macro_cycles else 0

    @property
    def total_cycles(self) -> int:
        """Cycles summed over every macro (the chip's energy-relevant work)."""
        return sum(self.per_macro_cycles)

    @property
    def lut_reuse_rate(self) -> float:
        """Fraction of jobs that reused a resident radix-4 LUT."""
        if not self.jobs:
            return 0.0
        return 1.0 - self.lut_refills / self.jobs

    @property
    def utilization(self) -> float:
        """How evenly the stream spread (1.0 = perfectly balanced)."""
        if not self.jobs or self.makespan_cycles == 0:
            return 0.0
        return self.total_cycles / (self.macros * self.makespan_cycles)

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
            "per_macro_cycles": list(self.per_macro_cycles),
            "lut_refills": self.lut_refills,
            "lut_reuse_rate": self.lut_reuse_rate,
            "makespan_cycles": self.makespan_cycles,
            "total_cycles": self.total_cycles,
            "utilization": self.utilization,
            "latency_ms": self.latency_ms,
            "throughput_mops": self.throughput_mops,
            "frequency_mhz": self.frequency_mhz,
        }


@dataclass(frozen=True)
class GraphSchedule:
    """Outcome of dependency-aware dispatch of one workload graph.

    Unlike :class:`ChipSchedule` (whose streams never idle a macro), a
    graph schedule distinguishes *busy* cycles from the *makespan*: a macro
    may sit idle waiting for a dependency, so ``utilization`` measures how
    much of the chip's capacity the dependency structure let the scheduler
    actually use.
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


def _dispatch_graph(
    graph: "WorkloadGraph",
    macros: int,
    iteration_cycles: int,
    refill_cycles: int,
    execute=None,
    placement_key=None,
):
    """Dependency-aware, LUT-residency-aware list scheduling.

    Nodes enter the ready heap when every dependency has finished, ordered
    by ``(ready time, -priority, index)``; each popped node is placed on
    the macro where it *finishes* earliest, with ties broken toward the
    macro whose resident LUT already matches (then the lowest index) — the
    exact placement rule of the flat stream scheduler, generalised with
    start times.  For a dependency-free graph this degenerates to the flat
    scheduler's placement decision for decision, which is what the parity
    tests pin down.

    ``execute(node, macro)``, when given, runs the node on that macro and
    returns its *measured* cycles, which replace the nominal charge (the
    placement decision itself always uses the nominal cost, mirroring
    :meth:`Chip.multiply`).  ``placement_key(node)``, when given,
    overrides the LUT-residency key (execution paths key on the resolved
    multiplicand *value* so the schedule's reuse accounting matches what
    the macros actually measure).
    """
    nodes = graph.nodes
    count = len(nodes)
    dependents: List[List[int]] = [[] for _ in range(count)]
    remaining = [0] * count
    for node in nodes:
        deps = set(node.deps)
        remaining[node.index] = len(deps)
        for dep in deps:
            dependents[dep].append(node.index)

    free = [0] * macros
    busy = [0] * macros
    jobs_on = [0] * macros
    resident: List[Optional[str]] = [None] * macros
    refills = 0
    finish = [0] * count
    critical = [0] * count

    ready = [
        (0, -nodes[index].priority, index)
        for index in range(count)
        if remaining[index] == 0
    ]
    heapq.heapify(ready)
    while ready:
        ready_time, _, index = heapq.heappop(ready)
        node = nodes[index]
        key = node.multiplicand if placement_key is None else placement_key(node)
        best_macro = 0
        best_finish: Optional[int] = None
        best_reused = False
        best_start = 0
        for macro in range(macros):
            reused = resident[macro] == key
            cost = iteration_cycles + (0 if reused else refill_cycles)
            start = max(free[macro], ready_time)
            finish_time = start + cost
            if (
                best_finish is None
                or finish_time < best_finish
                or (finish_time == best_finish and reused and not best_reused)
            ):
                best_macro = macro
                best_finish = finish_time
                best_reused = reused
                best_start = start
        cost = iteration_cycles + (0 if best_reused else refill_cycles)
        if execute is not None:
            cost = execute(node, best_macro)
            best_finish = best_start + cost
        free[best_macro] = best_finish
        busy[best_macro] += cost
        jobs_on[best_macro] += 1
        resident[best_macro] = key
        if not best_reused:
            refills += 1
        finish[index] = best_finish
        critical[index] = cost + max(
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

    if sum(jobs_on) != count:
        raise ConfigurationError(
            f"graph dispatch scheduled {sum(jobs_on)} of {count} nodes; "
            "the dependency structure is not a DAG"
        )
    return {
        "jobs": count,
        "per_macro_jobs": tuple(jobs_on),
        "per_macro_busy_cycles": tuple(busy),
        "makespan_cycles": max(finish, default=0),
        "critical_path_cycles": max(critical, default=0),
        "lut_refills": refills,
    }


class _PlacementState:
    """Flat-stream placement shared by both chip layers.

    The default ``lut-aware`` policy is finish-time-greedy and
    LUT-residency-aware; ``round-robin`` ignores both and cycles through
    the macros in index order (the baseline the DSE sweeps race against).
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
        self.macros = macros
        self.policy = policy
        self.iteration_cycles = iteration_cycles
        self.refill_cycles = refill_cycles
        self.loads = [0] * macros
        self.jobs = [0] * macros
        self.resident: List[Optional[str]] = [None] * macros
        self.refills = 0
        self._cursor = 0

    def place(self, key: str) -> Tuple[int, bool]:
        """Place one job; returns ``(macro_index, lut_reused)``.

        Under ``lut-aware`` the job lands where it finishes earliest: a
        macro with the matching resident LUT saves the refill cycles, so it
        wins unless it is already more than one refill ahead of the
        least-loaded macro; ties break toward the reusing macro, then the
        lowest index.  Under ``round-robin`` the job lands on the next
        macro in index order regardless of residency.
        """
        if self.policy == "round-robin":
            macro = self._cursor
            self._cursor = (self._cursor + 1) % self.macros
            reused = self.resident[macro] == key
            cost = self.loads[macro] + self.iteration_cycles
            if not reused:
                cost += self.refill_cycles
            self.loads[macro] = cost
            self.jobs[macro] += 1
            self.resident[macro] = key
            if not reused:
                self.refills += 1
            return macro, reused
        best_macro = 0
        best_cost = None
        best_reused = False
        for macro in range(self.macros):
            reused = self.resident[macro] == key
            cost = self.loads[macro] + self.iteration_cycles
            if not reused:
                cost += self.refill_cycles
            if (
                best_cost is None
                or cost < best_cost
                or (cost == best_cost and reused and not best_reused)
            ):
                best_macro, best_cost, best_reused = macro, cost, reused
        self.loads[best_macro] = best_cost
        self.jobs[best_macro] += 1
        self.resident[best_macro] = key
        if not best_reused:
            self.refills += 1
        return best_macro, best_reused

    def charge(self, macro: int, actual_cycles: int, nominal_cycles: int) -> None:
        """Replace a nominal placement charge with measured cycles."""
        self.loads[macro] += actual_cycles - nominal_cycles


class ChipScheduler:
    """Schedules abstract multiplication streams onto an N-macro chip.

    Uses the analytical cost algebra
    (:class:`~repro.modsram.analytical.AnalyticalCostModel`): every job
    costs the main-loop cycles plus, when the resident LUT does not match,
    the radix-4 refill — the single-macro
    :class:`~repro.modsram.scheduler.PointOperationScheduler`'s charges,
    generalised to a pool of macros.
    """

    def __init__(
        self,
        macros: int = 4,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
        policy: str = "lut-aware",
    ) -> None:
        if macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        if policy not in SCHEDULER_POLICIES:
            raise ConfigurationError(
                f"unknown scheduler policy {policy!r}; choose from "
                f"{SCHEDULER_POLICIES}"
            )
        self.macros = macros
        self.config = config or ModSRAMConfig()
        self.policy = policy
        self.cost_model = AnalyticalCostModel(self.config, geometry)

    def schedule(
        self,
        jobs: Iterable[MultiplicationJob],
        operation: str = "stream",
    ) -> ChipSchedule:
        """Dispatch one stream; returns the chip-level schedule summary."""
        state = _PlacementState(
            self.macros,
            self.cost_model.iteration_cycles(),
            self.cost_model.radix4_refill_cycles(),
            policy=self.policy,
        )
        count = 0
        for job in jobs:
            state.place(job.multiplicand)
            count += 1
        return ChipSchedule(
            operation=operation,
            macros=self.macros,
            jobs=count,
            per_macro_jobs=tuple(state.jobs),
            per_macro_cycles=tuple(state.loads),
            lut_refills=state.refills,
            frequency_mhz=self.config.frequency_mhz,
        )

    def schedule_graph(
        self,
        graph: "WorkloadGraph",
        operation: Optional[str] = None,
    ) -> GraphSchedule:
        """Dependency-aware dispatch of one workload graph.

        Ready fronts (nodes whose dependencies have finished) are placed
        finish-time-greedy and LUT-residency-aware across the macros; a
        node never starts before its dependencies complete, so — unlike
        :meth:`schedule`, which assumes a stream of independent jobs — the
        resulting makespan is *valid* for dependent workloads.  For a
        dependency-free graph the two paths place identically.  Graph
        dispatch is always LUT-residency-aware; the flat-stream ``policy``
        does not apply here.
        """
        dispatch = _dispatch_graph(
            graph,
            self.macros,
            self.cost_model.iteration_cycles(),
            self.cost_model.radix4_refill_cycles(),
        )
        return GraphSchedule(
            operation=operation or getattr(graph, "name", "graph"),
            macros=self.macros,
            depth=graph.depth,
            frequency_mhz=self.config.frequency_mhz,
            **dispatch,
        )


@dataclass(frozen=True)
class ChipGraphRun:
    """Products plus schedule of one graph executed on a :class:`Chip`."""

    schedule: GraphSchedule
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

    Every :meth:`multiply` is placed LUT-reuse-aware (the key is the actual
    multiplicand value and modulus) and executed on that macro's
    :class:`AnalyticalModSRAM`, whose exact cycle report is charged to the
    macro's busy time.  :meth:`activity` summarises the accumulated
    schedule in the same :class:`ChipSchedule` shape the abstract scheduler
    produces.
    """

    def __init__(
        self,
        macros: int = 4,
        config: Optional[ModSRAMConfig] = None,
        geometry: Optional[MacroGeometry] = None,
    ) -> None:
        if macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        base = config or ModSRAMConfig()
        self._macros = [
            AnalyticalModSRAM(base, geometry) for _ in range(macros)
        ]
        # Executable macros apply the geometry to their config, so the
        # chip-level view (config, cost model) follows the first macro.
        self.config = self._macros[0].config
        self.cost_model = self._macros[0].cost_model
        self._state = _PlacementState(
            macros,
            self.cost_model.iteration_cycles(),
            self.cost_model.lut_fill_cycles(),
        )

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
        macro_index, reused = self._state.place(key)
        nominal = self._state.iteration_cycles + (
            0 if reused else self._state.refill_cycles
        )
        result = self._macros[macro_index].multiply(a, b, modulus)
        actual = result.report.iteration_cycles + result.report.precompute_cycles
        self._state.charge(macro_index, actual, nominal)
        return result

    def multiply_many(
        self, pairs: List[Tuple[int, int]], modulus: int
    ) -> List[MultiplicationResult]:
        """Dispatch a batch of operand pairs across the chip."""
        return [self.multiply(a, b, modulus) for a, b in pairs]

    def run_graph(
        self,
        graph: "WorkloadGraph",
        modulus: int,
        operation: Optional[str] = None,
    ) -> ChipGraphRun:
        """Execute an operand-carrying graph across the chip's macros.

        Placement is the same dependency-aware, LUT-residency-aware rule
        as :meth:`ChipScheduler.schedule_graph`; every node then runs on
        its macro's :class:`AnalyticalModSRAM` and the *measured* cycle
        report replaces the nominal charge (mirroring :meth:`multiply`).
        Products are bit-identical to evaluating the nodes one by one —
        placement changes the timing, never the arithmetic.
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

        dispatch = _dispatch_graph(
            graph,
            self.macros,
            self._state.iteration_cycles,
            self._state.refill_cycles,
            execute=execute,
            placement_key=placement_key,
        )
        schedule = GraphSchedule(
            operation=operation or getattr(graph, "name", "graph"),
            macros=self.macros,
            depth=graph.depth,
            frequency_mhz=self.config.frequency_mhz,
            **dispatch,
        )
        return ChipGraphRun(
            schedule=schedule,
            values=tuple(value for value in values),  # type: ignore[arg-type]
            sinks=tuple(graph.sinks()),
        )

    def activity(self, operation: str = "executed") -> ChipSchedule:
        """Schedule summary of everything executed so far."""
        state = self._state
        return ChipSchedule(
            operation=operation,
            macros=self.macros,
            jobs=sum(state.jobs),
            per_macro_jobs=tuple(state.jobs),
            per_macro_cycles=tuple(state.loads),
            lut_refills=state.refills,
            frequency_mhz=self.config.frequency_mhz,
        )

    def stats(self):
        """Chip-wide access profile: every macro's stats merged."""
        merged = ArrayStats()
        for macro in self._macros:
            merged = merged.merged_with(macro.host.stats)
        return merged

    def energy_report(self):
        """Energy implied by everything executed so far, chip-wide."""
        register_bits = sum(
            macro.host.datapath.stats.register_bits_written
            for macro in self._macros
        )
        return self.config.energy.from_stats(self.stats(), register_bits)
