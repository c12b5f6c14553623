"""Sweep orchestration: spec → evaluated points → frontier.

:func:`run_dse` expands a :class:`~repro.dse.spec.SweepSpec` into design
points, evaluates each in-process with
:func:`~repro.dse.evaluate.evaluate_design_point`, then reduces the
results into the throughput/energy/area Pareto frontier with
dominated-point accounting.  The whole run is a :class:`DseRunResult`,
the result of the registered ``dse`` experiment, which ``repro dse run``
executes: its quick mode and ``sample`` are the one place a sweep is
shrunk (:meth:`~repro.dse.spec.SweepSpec.quick`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.dse.evaluate import DsePointResult, evaluate_design_point
from repro.dse.frontier import (
    DEFAULT_OBJECTIVES,
    FrontierPoint,
    pareto_frontier,
)
from repro.dse.spec import SweepSpec
from repro.tables import render_table

__all__ = ["DseRunResult", "run_dse"]


@dataclass(frozen=True)
class DseRunResult:
    """One executed sweep: every point, the frontier, and its timing."""

    spec: Dict[str, Any]
    points: List[DsePointResult]
    frontier: List[FrontierPoint]
    #: Points some frontier member dominates (== points - frontier size
    #: only when no two points tie on every objective).
    dominated: int
    elapsed_seconds: float

    @property
    def points_per_second(self) -> float:
        """Evaluated points per second of the sweep."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.points) / self.elapsed_seconds

    @property
    def passed(self) -> bool:
        """The experiment's verdict: the sweep has a frontier."""
        return bool(self.frontier)

    def frontier_rows(self) -> List[List[object]]:
        """Frontier members as table rows (expansion order)."""
        rows = []
        for member in self.frontier:
            result = self.points[member.index]
            rows.append(
                [member.index]
                + result.as_row()[:9]
                + [member.dominates]
            )
        return rows

    def render(self) -> str:
        """Sweep summary plus the frontier as a text table."""
        name = self.spec.get("name", "sweep")
        summary = (
            f"sweep {name!r}: {len(self.points)} points "
            f"in {self.elapsed_seconds:.2f}s "
            f"({self.points_per_second:.0f} points/s); frontier "
            f"{len(self.frontier)}, dominated {self.dominated}"
        )
        table = render_table(
            tuple(
                ["point"]
                + DsePointResult.table_header()[:9]
                + ["dominates"]
            ),
            self.frontier_rows(),
            title="Pareto frontier (max throughput, min energy/op, min area)",
        )
        return summary + "\n\n" + table

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean representation."""
        return {
            "spec": dict(self.spec),
            "points": [point.to_dict() for point in self.points],
            "frontier": [
                {
                    "index": member.index,
                    "objectives": dict(member.objectives),
                    "dominates": member.dominates,
                }
                for member in self.frontier
            ],
            "dominated": self.dominated,
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
        }


def run_dse(spec: SweepSpec) -> DseRunResult:
    """Expand a sweep spec and evaluate every point in-process."""
    points = spec.expand()
    started = time.perf_counter()
    evaluated = [evaluate_design_point(point) for point in points]
    elapsed = time.perf_counter() - started
    frontier = pareto_frontier(
        [point.metrics() for point in evaluated], DEFAULT_OBJECTIVES
    )
    return DseRunResult(
        spec=spec.to_dict(),
        points=evaluated,
        frontier=frontier,
        dominated=len(evaluated) - len(frontier),
        elapsed_seconds=elapsed,
    )
