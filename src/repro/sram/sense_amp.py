"""Sense amplifiers and the logic-SA module.

The in-memory compute trick ModSRAM borrows from Sridharan et al. (ESSCIRC
2022) is that when three rows are activated on an 8T read port, the read
bitline discharges by an amount proportional to the number of selected cells
storing a one.  Placing *three* conventional latch-type sense amplifiers on
each bitline, with reference voltages between the four possible discharge
levels, yields a thermometer code of that count, from which the two
functions a carry-save adder needs fall out combinationally:

* ``XOR3`` — the count is odd (level 1 or 3),
* ``MAJ``  — the count is at least two (level 2 or 3).

This module models the latch sense amplifier (including offset and optional
noise, so sensing-margin ablations are possible) and the per-column logic-SA
block, and exposes a whole-row evaluation used by the accelerator.

With no noise, at most three activated rows and at least as many sense
amplifiers as rows, every column's level is recovered exactly (the offset
stays below half a step), so that evaluation is one word-level
:func:`~repro.core.carry_save.xor3_maj`.  Any other access, noisy sensing
and too few sense amplifiers included, runs each column's comparators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.carry_save import xor3_maj
from repro.errors import ConfigurationError, SenseMarginError
from repro.sram.array import BitlineReadout

__all__ = [
    "SenseAmpParameters",
    "LatchSenseAmplifier",
    "LogicSenseAmpResult",
    "LogicSenseAmpModule",
]


@dataclass(frozen=True)
class SenseAmpParameters:
    """Electrical parameters of the bitline + sense-amplifier system.

    The defaults describe the 65 nm reference design: a 1.2 V precharged
    read bitline that discharges by ``discharge_per_cell_v`` for every
    activated cell storing a one, sensed by latch-type amplifiers with a
    small input-referred offset.
    """

    vdd_v: float = 1.2
    discharge_per_cell_v: float = 0.25
    sense_offset_v: float = 0.02
    noise_sigma_v: float = 0.0
    sense_amps_per_bitline: int = 3

    def __post_init__(self) -> None:
        if self.vdd_v <= 0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd_v}")
        if self.discharge_per_cell_v <= 0:
            raise ConfigurationError(
                f"discharge step must be positive, got {self.discharge_per_cell_v}"
            )
        if not 0 <= self.sense_offset_v < self.discharge_per_cell_v / 2:
            raise ConfigurationError(
                "sense offset must be non-negative and below half a discharge step"
            )
        if self.noise_sigma_v < 0:
            raise ConfigurationError(
                f"noise sigma must be non-negative, got {self.noise_sigma_v}"
            )
        if self.sense_amps_per_bitline < 1:
            raise ConfigurationError("at least one sense amplifier is required")

    def bitline_voltage(self, conducting_cells: int) -> float:
        """RBL voltage after the develop phase for a given cell count."""
        if conducting_cells < 0:
            raise ConfigurationError(
                f"cell count must be non-negative, got {conducting_cells}"
            )
        return self.vdd_v - conducting_cells * self.discharge_per_cell_v

    def reference_voltages(self) -> Tuple[float, ...]:
        """Reference levels placed midway between adjacent discharge levels."""
        return tuple(
            self.vdd_v - (index + 0.5) * self.discharge_per_cell_v
            for index in range(self.sense_amps_per_bitline)
        )


class LatchSenseAmplifier:
    """A conventional latch-type voltage sense amplifier.

    Resolves the sign of ``v_plus - v_minus``.  A deterministic offset and
    an optional Gaussian noise term model the non-ideality that limits how
    close the reference may sit to a discharge level; if the differential
    input (after noise) is smaller than the offset the amplifier cannot be
    trusted and a :class:`SenseMarginError` is raised.
    """

    def __init__(
        self,
        offset_v: float = 0.02,
        noise_sigma_v: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if offset_v < 0:
            raise ConfigurationError(f"offset must be non-negative, got {offset_v}")
        if noise_sigma_v < 0:
            raise ConfigurationError(
                f"noise sigma must be non-negative, got {noise_sigma_v}"
            )
        self.offset_v = offset_v
        self.noise_sigma_v = noise_sigma_v
        self._rng = rng or random.Random(0)
        self.evaluations = 0

    def resolve(self, v_plus: float, v_minus: float) -> bool:
        """Return ``True`` when ``v_plus`` is reliably above ``v_minus``."""
        self.evaluations += 1
        differential = v_plus - v_minus
        if self.noise_sigma_v:
            differential += self._rng.gauss(0.0, self.noise_sigma_v)
        if abs(differential) < self.offset_v:
            raise SenseMarginError(
                f"sense margin {abs(differential) * 1e3:.1f} mV is below the "
                f"amplifier offset {self.offset_v * 1e3:.1f} mV"
            )
        return differential > 0


@dataclass(frozen=True)
class LogicSenseAmpResult:
    """Per-access output of the logic-SA module across a full row."""

    xor3: int
    maj: int

    def as_tuple(self) -> Tuple[int, int]:
        """The two carry-save outputs ``(xor3, maj)``."""
        return self.xor3, self.maj


class LogicSenseAmpModule:
    """One logic-SA block per column: three SAs plus decode logic.

    ``evaluate`` maps a :class:`BitlineReadout` to the row-wide XOR3 and MAJ
    words: on the activated words directly when sensing is ideal, otherwise
    by modelling each column's sense-amplifier comparisons explicitly.
    """

    def __init__(
        self,
        columns: int,
        parameters: SenseAmpParameters = SenseAmpParameters(),
        rng: Optional[random.Random] = None,
    ) -> None:
        if columns <= 0:
            raise ConfigurationError(f"columns must be positive, got {columns}")
        self.columns = columns
        self.parameters = parameters
        self._rng = rng or random.Random(0)
        self._amplifier = LatchSenseAmplifier(
            offset_v=parameters.sense_offset_v,
            noise_sigma_v=parameters.noise_sigma_v,
            rng=self._rng,
        )
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # per-column behaviour
    # ------------------------------------------------------------------ #
    def column_level(self, conducting_cells: int) -> int:
        """Thermometer-decode one column's discharge level (0..3).

        The three sense amplifiers compare the bitline against the three
        references; the number of references the bitline has fallen below is
        the recovered count.
        """
        voltage = self.parameters.bitline_voltage(conducting_cells)
        level = 0
        for reference in self.parameters.reference_voltages():
            if self._amplifier.resolve(reference, voltage):
                level += 1
        return level

    @staticmethod
    def decode(level: int) -> Tuple[int, int]:
        """Map a recovered count to the ``(xor3, maj)`` bit pair."""
        return level & 1, 1 if level >= 2 else 0

    # ------------------------------------------------------------------ #
    # whole-row behaviour
    # ------------------------------------------------------------------ #
    def evaluate(self, readout: BitlineReadout) -> LogicSenseAmpResult:
        """Resolve a multi-row access into XOR3/MAJ words.

        Ideal sensing is resolved on whole words (see the module docstring).
        """
        if readout.columns != self.columns:
            raise ConfigurationError(
                f"readout width {readout.columns} does not match the "
                f"{self.columns}-column sense-amplifier bank"
            )
        self.accesses += 1
        words = readout.words
        parameters = self.parameters
        if not parameters.noise_sigma_v and len(words) <= min(
            3, parameters.sense_amps_per_bitline
        ):
            a, b, c = words + (0,) * (3 - len(words))
            return LogicSenseAmpResult(*xor3_maj(a, b, c))
        xor3_word = 0
        maj_word = 0
        for column, count in enumerate(readout.column_counts):
            xor3_bit, maj_bit = self.decode(self.column_level(count))
            xor3_word |= xor3_bit << column
            maj_word |= maj_bit << column
        return LogicSenseAmpResult(xor3=xor3_word, maj=maj_word)

    # ------------------------------------------------------------------ #
    # robustness analysis helpers
    # ------------------------------------------------------------------ #
    def worst_case_margin_v(self) -> float:
        """Smallest distance between any discharge level and any reference."""
        references = self.parameters.reference_voltages()
        margins = []
        for count in range(self.parameters.sense_amps_per_bitline + 1):
            voltage = self.parameters.bitline_voltage(count)
            margins.extend(abs(voltage - reference) for reference in references)
        return min(margins)

    def failure_probability(self, noise_sigma_v: float) -> float:
        """Analytic probability that one comparison flips under noise.

        Assumes Gaussian bitline/reference noise with the given sigma and
        the worst-case margin.
        """
        if noise_sigma_v <= 0:
            return 0.0
        margin = self.worst_case_margin_v()
        return 0.5 * math.erfc(margin / (noise_sigma_v * math.sqrt(2.0)))
