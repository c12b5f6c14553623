"""First-order energy model for the SRAM macro.

The paper does not report energy numbers, but a PIM library is not usable
for design-space exploration without one, so the model here provides
per-event energies (precharge, word-line activation, per-column sensing,
write-back, near-memory flip-flop updates) with 65 nm-plausible defaults and
computes macro energy from the access statistics the array and accelerator
already collect.  Every constant is a parameter so users can re-calibrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.sram.stats import ArrayStats

__all__ = ["EnergyModel", "EnergyBreakdown", "DEFAULT_65NM_ENERGY"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attributed to each access mechanism, in picojoules."""

    precharge_pj: float
    wordline_pj: float
    sensing_pj: float
    write_pj: float
    near_memory_pj: float

    @property
    def total_pj(self) -> float:
        """Total macro energy in picojoules."""
        return (
            self.precharge_pj
            + self.wordline_pj
            + self.sensing_pj
            + self.write_pj
            + self.near_memory_pj
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown plus total, for reports."""
        return {
            "precharge_pj": self.precharge_pj,
            "wordline_pj": self.wordline_pj,
            "sensing_pj": self.sensing_pj,
            "write_pj": self.write_pj,
            "near_memory_pj": self.near_memory_pj,
            "total_pj": self.total_pj,
        }


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies in femtojoules (65 nm defaults)."""

    precharge_fj_per_column: float = 1.8
    wordline_fj_per_activation: float = 35.0
    sense_fj_per_column: float = 2.4
    write_fj_per_bit: float = 3.1
    flipflop_fj_per_bit: float = 1.2
    columns: int = 256

    def __post_init__(self) -> None:
        for name in (
            "precharge_fj_per_column",
            "wordline_fj_per_activation",
            "sense_fj_per_column",
            "write_fj_per_bit",
            "flipflop_fj_per_bit",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.columns <= 0:
            raise ConfigurationError(f"columns must be positive, got {self.columns}")

    def from_stats(self, stats: ArrayStats, flipflop_writes: int = 0) -> EnergyBreakdown:
        """Compute the macro energy implied by a set of access statistics.

        Parameters
        ----------
        stats:
            Counters collected by :class:`repro.sram.array.SramArray`.
        flipflop_writes:
            Number of near-memory register-bit updates (reported by the
            accelerator's datapath), charged at the flip-flop energy.
        """
        if flipflop_writes < 0:
            raise ConfigurationError(
                f"flipflop_writes must be non-negative, got {flipflop_writes}"
            )
        precharge = stats.precharges * self.columns * self.precharge_fj_per_column
        wordline = stats.rows_activated * self.wordline_fj_per_activation
        # Every read senses all columns; compute reads use three SAs per
        # column instead of one.
        plain_reads = stats.row_reads - stats.compute_reads
        sensing = (
            plain_reads * self.columns * self.sense_fj_per_column
            + stats.compute_reads * self.columns * 3 * self.sense_fj_per_column
        )
        write = stats.bits_written * self.write_fj_per_bit
        near_memory = flipflop_writes * self.flipflop_fj_per_bit
        return EnergyBreakdown(
            precharge_pj=precharge * 1e-3,
            wordline_pj=wordline * 1e-3,
            sensing_pj=sensing * 1e-3,
            write_pj=write * 1e-3,
            near_memory_pj=near_memory * 1e-3,
        )


#: Default 65 nm energy model matching the 256-column ModSRAM macro.
DEFAULT_65NM_ENERGY = EnergyModel()
