"""Evaluation of one design point: schedule, energy, area, verification.

One :class:`~repro.dse.spec.DesignPoint` becomes one
:class:`DsePointResult`: a deterministic job stream (the ``*_jobs``
functions of :mod:`repro.workloads.builders`) is scheduled
across the point's macros with the geometry-aware analytical cost algebra
(:class:`~repro.modsram.chip.ChipScheduler`), the closed-form energy and
area models price the design, and — when the point asks for ``cycle`` or
``hdl`` fidelity — a seeded probe multiplication races the executable tier
against the closed form (:func:`~repro.modsram.fidelity.probe_multiply`:
products equal to the big-integer oracle, cycle reports, and energy
reports where the tier keeps one, equal field by field) before the point
is marked *verified*.  Energy per op is
:meth:`~repro.modsram.analytical.AnalyticalCostModel.energy`, the array
accesses plus the near-memory register writes of one multiplication, as
the executable tiers charge it, cold and warm weighed by the schedule's
LUT reuse.

This module is what :func:`~repro.dse.run.run_dse` and the registered
``dse-point`` experiment run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List

from repro.modsram.analytical import AnalyticalCostModel
from repro.modsram.area import AreaModel
from repro.modsram.chip import ChipSchedule, ChipScheduler, MultiplicationJob
from repro.modsram.config import build_design_config
from repro.modsram.fidelity import build_simulator, probe_multiply
from repro.dse.spec import DesignPoint
from repro.tables import render_table
from repro.workloads.builders import (
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_jobs,
    scalar_multiplication_jobs,
)

__all__ = ["DsePointResult", "evaluate_design_point"]


def _round_robin(*streams: Iterable[MultiplicationJob]) -> Iterator[MultiplicationJob]:
    """Interleave streams one job at a time until all are exhausted."""
    iterators = [iter(stream) for stream in streams]
    while iterators:
        still_live = []
        for iterator in iterators:
            try:
                yield next(iterator)
            except StopIteration:
                continue
            still_live.append(iterator)
        iterators = still_live


def _fresh_jobs(point: DesignPoint) -> Iterable[MultiplicationJob]:
    bits = point.bitwidth
    if point.workload == "ecdsa-sign":
        return ecdsa_sign_jobs(bits, signatures=1)
    if point.workload == "scalar-mult":
        return scalar_multiplication_jobs(bits)
    if point.workload == "ntt":
        return ntt_jobs(256)
    if point.workload == "msm":
        return msm_jobs(max(4, point.workload_ops // 8), scalar_bits=bits)
    return _round_robin(
        ecdsa_sign_jobs(bits, signatures=1),
        ntt_jobs(256),
        msm_jobs(max(4, point.workload_ops // 16), scalar_bits=bits),
    )


def _workload_jobs(point: DesignPoint) -> List[MultiplicationJob]:
    """Exactly ``workload_ops`` jobs, restarting the workload as needed."""
    jobs: List[MultiplicationJob] = []
    while len(jobs) < point.workload_ops:
        before = len(jobs)
        for job in _fresh_jobs(point):
            jobs.append(job)
            if len(jobs) >= point.workload_ops:
                break
        if len(jobs) == before:  # pragma: no cover - empty stream guard
            break
    return jobs


def _point_seed(point: DesignPoint) -> int:
    """A deterministic per-point seed (stable across runs and machines)."""
    canonical = repr(sorted(point.to_params().items()))
    return zlib.crc32(canonical.encode("utf-8"))


@dataclass(frozen=True)
class DsePointResult:
    """Every metric of one evaluated design point."""

    point: DesignPoint
    #: ``True`` when an executable-tier probe verified the closed form.
    verified: bool
    jobs: int
    makespan_cycles: int
    lut_reuse_rate: float
    utilization: float
    frequency_mhz: float
    #: Closed-form cycles of one cold (LUT-filling) multiplication.
    cycles_per_op: int
    latency_ms: float
    throughput_mops: float
    energy_pj_per_op: float
    macro_area_mm2: float
    area_mm2: float

    def metrics(self) -> Dict[str, Any]:
        """Flat metric mapping (what the Pareto extractor consumes)."""
        return {
            "throughput_mops": self.throughput_mops,
            "energy_pj_per_op": self.energy_pj_per_op,
            "area_mm2": self.area_mm2,
            "makespan_cycles": self.makespan_cycles,
            "lut_reuse_rate": self.lut_reuse_rate,
            "utilization": self.utilization,
            "cycles_per_op": self.cycles_per_op,
        }

    def as_row(self) -> List[object]:
        """One row of a sweep table."""
        point = self.point
        return [
            point.bitwidth,
            f"{point.rows}x{point.resolved_columns()}"
            + (f"/{point.banks}b" if point.banks != 1 else ""),
            point.radix,
            point.macros,
            point.scheduler,
            point.workload,
            round(self.throughput_mops, 3),
            round(self.energy_pj_per_op, 1),
            round(self.area_mm2, 4),
            f"{self.lut_reuse_rate:.2f}",
            "yes" if self.verified else "-",
        ]

    @staticmethod
    def table_header() -> List[str]:
        """Column titles matching :meth:`as_row`."""
        return [
            "bits",
            "geometry",
            "radix",
            "macros",
            "scheduler",
            "workload",
            "thr (Mops)",
            "pJ/op",
            "mm^2",
            "reuse",
            "verified",
        ]

    def render(self) -> str:
        """The point as a one-row text table."""
        return render_table(
            tuple(self.table_header()),
            [self.as_row()],
            title=f"DSE point ({self.point.fidelity})",
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean representation."""
        payload = dict(self.point.to_params())
        payload.update(
            {
                "verified": self.verified,
                "jobs": self.jobs,
                "makespan_cycles": self.makespan_cycles,
                "lut_reuse_rate": self.lut_reuse_rate,
                "utilization": self.utilization,
                "frequency_mhz": self.frequency_mhz,
                "cycles_per_op": self.cycles_per_op,
                "latency_ms": self.latency_ms,
                "throughput_mops": self.throughput_mops,
                "energy_pj_per_op": self.energy_pj_per_op,
                "macro_area_mm2": self.macro_area_mm2,
                "area_mm2": self.area_mm2,
            }
        )
        return payload


def evaluate_design_point(point: DesignPoint) -> DsePointResult:
    """Price one design point: throughput, energy/op, area, verification."""
    geometry = point.geometry()
    config = build_design_config(
        point.bitwidth,
        rows=point.rows,
        technology_nm=point.technology_nm,
        columns=point.resolved_columns(),
    )
    cost_model = AnalyticalCostModel(config, geometry)
    scheduler = ChipScheduler(
        macros=point.macros,
        config=config,
        geometry=geometry,
        policy=point.scheduler,
    )
    jobs = _workload_jobs(point)
    schedule: ChipSchedule = scheduler.schedule(jobs, operation=point.workload)

    reuse = schedule.lut_reuse_rate
    cold_pj = cost_model.energy(reused=False).total_pj
    warm_pj = cost_model.energy(reused=True).total_pj
    energy_pj_per_op = reuse * warm_pj + (1.0 - reuse) * cold_pj

    macro_area = AreaModel(config).total_mm2()
    verified = point.fidelity != "analytical"
    if verified:
        # Race one seeded multiply on the point's tier against the closed
        # form; a failure raises TierMismatchError.
        probe_multiply(build_simulator(point.fidelity, config), _point_seed(point))

    return DsePointResult(
        point=point,
        verified=verified,
        jobs=schedule.jobs,
        makespan_cycles=schedule.makespan_cycles,
        lut_reuse_rate=reuse,
        utilization=schedule.utilization,
        frequency_mhz=config.frequency_mhz,
        cycles_per_op=cost_model.total_cycles(),
        latency_ms=schedule.latency_ms,
        throughput_mops=schedule.throughput_mops,
        energy_pj_per_op=energy_pj_per_op,
        macro_area_mm2=macro_area,
        area_mm2=macro_area * point.macros,
    )
