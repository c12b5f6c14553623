"""Chip scale-out: throughput of an N-macro ModSRAM chip on real workloads.

The paper evaluates one macro; every workload-scale question the roadmap
cares about (full ECDSA signing, large NTTs, MSM batches) needs *many*
macros.  This exhibit dispatches a workload's lazy job stream (the
``*_jobs`` functions of :mod:`repro.workloads.builders`) across chips of
increasing macro count with the LUT-reuse-aware scheduler
(:mod:`repro.modsram.chip`) and reports, per macro count: makespan,
latency, throughput, LUT-reuse rate, speedup over one macro and parallel
efficiency.

Registered as experiment ``chip-scaling`` in :mod:`repro.experiments`, so
it appears in ``repro report`` and is reachable as ``repro experiment run
chip-scaling`` or the ``repro chip`` shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.modsram.chip import ChipScheduler, MultiplicationJob
from repro.modsram.config import ModSRAMConfig
from repro.tables import render_table
from repro.workloads.builders import (
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_jobs,
    scalar_multiplication_jobs,
)

__all__ = [
    "ChipScalingPoint",
    "ChipScalingResult",
    "reproduce_chip_scaling",
    "CHIP_WORKLOADS",
]

#: Workloads by name; each maps the experiment parameters to a lazy
#: stream of MultiplicationJobs.
CHIP_WORKLOADS: Tuple[str, ...] = ("ecdsa-sign", "scalar-mult", "ntt", "msm")


def _workload_jobs(
    workload: str,
    scalar_bits: int,
    signatures: int,
    vector_size: int,
    msm_points: int,
) -> Iterable[MultiplicationJob]:
    if workload == "ecdsa-sign":
        return ecdsa_sign_jobs(scalar_bits, signatures=signatures)
    if workload == "scalar-mult":
        return scalar_multiplication_jobs(scalar_bits)
    if workload == "ntt":
        return ntt_jobs(vector_size)
    if workload == "msm":
        return msm_jobs(msm_points, scalar_bits=scalar_bits)
    raise ConfigurationError(
        f"unknown workload {workload!r}; available: {list(CHIP_WORKLOADS)}"
    )


@dataclass(frozen=True)
class ChipScalingPoint:
    """One (workload, macro count) operating point."""

    macros: int
    jobs: int
    makespan_cycles: int
    lut_reuse_rate: float
    utilization: float
    latency_ms: float
    throughput_mops: float
    speedup: float
    efficiency: float

    def as_row(self) -> List[object]:
        """One row of the scaling table."""
        return [
            self.macros,
            self.jobs,
            self.makespan_cycles,
            round(self.lut_reuse_rate, 3),
            round(self.utilization, 3),
            round(self.latency_ms, 4),
            round(self.throughput_mops, 3),
            round(self.speedup, 2),
            round(self.efficiency, 3),
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "macros": self.macros,
            "jobs": self.jobs,
            "makespan_cycles": self.makespan_cycles,
            "lut_reuse_rate": self.lut_reuse_rate,
            "utilization": self.utilization,
            "latency_ms": self.latency_ms,
            "throughput_mops": self.throughput_mops,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
        }


@dataclass(frozen=True)
class ChipScalingResult:
    """The chip-scaling exhibit: one workload across macro counts."""

    workload: str
    bitwidth: int
    workload_parameter: str
    points: Tuple[ChipScalingPoint, ...]

    def render(self) -> str:
        """Text table: throughput and efficiency versus macro count."""
        return render_table(
            (
                "macros",
                "jobs",
                "makespan (cyc)",
                "LUT reuse",
                "utilization",
                "latency (ms)",
                "Mmul/s",
                "speedup",
                "efficiency",
            ),
            [point.as_row() for point in self.points],
            title=(
                f"Chip scale-out on {self.workload} "
                f"({self.workload_parameter}, {self.bitwidth}-bit operands)"
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "workload": self.workload,
            "bitwidth": self.bitwidth,
            "workload_parameter": self.workload_parameter,
            "points": [point.to_dict() for point in self.points],
        }


def reproduce_chip_scaling(
    workload: str = "ecdsa-sign",
    macro_counts: Sequence[int] = (1, 2, 4, 8, 16),
    bitwidth: int = 256,
    scalar_bits: int = 256,
    signatures: int = 1,
    vector_size: int = 4096,
    msm_points: int = 128,
) -> ChipScalingResult:
    """Scale one workload across chips of increasing macro count.

    The job stream is regenerated per macro count (it is a one-shot
    generator) and dispatched by the LUT-reuse-aware chip scheduler on the
    paper's macro configuration at ``bitwidth``.
    """
    if not macro_counts:
        raise ConfigurationError("macro_counts must not be empty")
    config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bitwidth)
    parameter = {
        "ecdsa-sign": f"{signatures} signature(s), {scalar_bits}-bit scalars",
        "scalar-mult": f"{scalar_bits}-bit scalar",
        "ntt": f"2^{max(vector_size.bit_length() - 1, 0)} points",
        "msm": f"{msm_points} points, {scalar_bits}-bit scalars",
    }.get(workload, "")

    def run_at(macros: int):
        scheduler = ChipScheduler(int(macros), config)
        return scheduler.schedule(
            _workload_jobs(
                workload, scalar_bits, signatures, vector_size, msm_points
            ),
            operation=workload,
        )

    schedules = {int(macros): run_at(int(macros)) for macros in macro_counts}
    baseline_makespan = (
        schedules[1].makespan_cycles if 1 in schedules else run_at(1).makespan_cycles
    )
    points: List[ChipScalingPoint] = []
    for macros in macro_counts:
        schedule = schedules[int(macros)]
        speedup = (
            baseline_makespan / schedule.makespan_cycles
            if schedule.makespan_cycles
            else 0.0
        )
        points.append(
            ChipScalingPoint(
                macros=schedule.macros,
                jobs=schedule.jobs,
                makespan_cycles=schedule.makespan_cycles,
                lut_reuse_rate=schedule.lut_reuse_rate,
                utilization=schedule.utilization,
                latency_ms=schedule.latency_ms,
                throughput_mops=schedule.throughput_mops,
                speedup=speedup,
                efficiency=speedup / schedule.macros if schedule.macros else 0.0,
            )
        )
    return ChipScalingResult(
        workload=workload,
        bitwidth=bitwidth,
        workload_parameter=parameter,
        points=tuple(points),
    )
