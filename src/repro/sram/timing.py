"""Timing model of the ModSRAM read-compute-write pipeline.

The paper reports a 420 MHz clock for the 65 nm design, obtained from HSPICE
simulation of the critical path: precharge, read word-line assertion and
bitline development across three activated cells, triple sense amplification
and the near-memory latch.  This module replaces the SPICE run with a phase
model whose default 65 nm phase latencies are calibrated to reproduce that
clock, and which scales to other nodes with the usual constant-field rules
so the design-space examples can sweep technology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ConfigurationError

__all__ = ["TimingModel", "DEFAULT_65NM_TIMING"]


@dataclass(frozen=True)
class TimingModel:
    """Phase latencies (in nanoseconds) of one array access."""

    technology_nm: int = 65
    precharge_ns: float = 0.55
    wordline_ns: float = 0.40
    bitline_develop_ns: float = 0.55
    sense_ns: float = 0.45
    write_ns: float = 0.85
    nmc_logic_ns: float = 0.43

    def __post_init__(self) -> None:
        for name in (
            "precharge_ns",
            "wordline_ns",
            "bitline_develop_ns",
            "sense_ns",
            "write_ns",
            "nmc_logic_ns",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.technology_nm <= 0:
            raise ConfigurationError(
                f"technology node must be positive, got {self.technology_nm}"
            )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def read_compute_latency_ns(self) -> float:
        """Latency of a logic-SA access (the in-memory compute path)."""
        return (
            self.precharge_ns
            + self.wordline_ns
            + self.bitline_develop_ns
            + self.sense_ns
            + self.nmc_logic_ns
        )

    @property
    def write_latency_ns(self) -> float:
        """Latency of a row write-back from the near-memory flip-flops."""
        return self.precharge_ns + self.wordline_ns + self.write_ns + self.nmc_logic_ns

    @property
    def cycle_time_ns(self) -> float:
        """Clock period: the slower of the read-compute and write paths."""
        return max(self.read_compute_latency_ns, self.write_latency_ns)

    @property
    def frequency_mhz(self) -> float:
        """Clock frequency implied by the critical path."""
        return 1e3 / self.cycle_time_ns

    # ------------------------------------------------------------------ #
    # scaling
    # ------------------------------------------------------------------ #
    def scaled_to(self, technology_nm: int) -> "TimingModel":
        """Scale every phase latency linearly with the technology node.

        A first-order constant-field scaling: gate delay shrinks with the
        node.  This is only used for cross-node what-if sweeps; the paper's
        numbers are all at 65 nm.
        """
        if technology_nm <= 0:
            raise ConfigurationError(
                f"technology node must be positive, got {technology_nm}"
            )
        factor = technology_nm / self.technology_nm
        return replace(
            self,
            technology_nm=technology_nm,
            precharge_ns=self.precharge_ns * factor,
            wordline_ns=self.wordline_ns * factor,
            bitline_develop_ns=self.bitline_develop_ns * factor,
            sense_ns=self.sense_ns * factor,
            write_ns=self.write_ns * factor,
            nmc_logic_ns=self.nmc_logic_ns * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Phase latencies plus the derived figures, for reports."""
        return {
            "technology_nm": float(self.technology_nm),
            "precharge_ns": self.precharge_ns,
            "wordline_ns": self.wordline_ns,
            "bitline_develop_ns": self.bitline_develop_ns,
            "sense_ns": self.sense_ns,
            "write_ns": self.write_ns,
            "nmc_logic_ns": self.nmc_logic_ns,
            "read_compute_latency_ns": self.read_compute_latency_ns,
            "write_latency_ns": self.write_latency_ns,
            "cycle_time_ns": self.cycle_time_ns,
            "frequency_mhz": self.frequency_mhz,
        }


#: The calibrated 65 nm timing used throughout the reproduction; its derived
#: frequency is ~420 MHz, matching Table 3.
DEFAULT_65NM_TIMING = TimingModel()
