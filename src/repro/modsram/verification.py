"""Equivalence checking between the hardware model and the reference algorithm.

The paper verifies ModSRAM with HSPICE and Verilog testbenches; the Python
counterpart is an equivalence-checking harness that drives the cycle-accurate
accelerator, the functional R4CSA-LUT algorithm and the big-integer oracle
with the same operand corpus and cross-checks every result; the
accelerator's cycle reports are checked, field by field, against the
analytical tier kept in step with it (:func:`~repro.modsram.fidelity.cross_check`).
The corpus mixes random operands with the directed patterns hardware
verification actually uses (all-zeros, all-ones, single-bit walks, values
straddling the modulus), because those are the patterns that exercise the
overflow LUT and the register-boundary corner cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.algorithms.r4csa_lut import R4CSALutMultiplier
from repro.errors import ConfigurationError
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.analytical import AnalyticalModSRAM
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import cross_check

__all__ = ["VerificationCase", "VerificationReport", "EquivalenceChecker", "directed_operands"]


def directed_operands(modulus: int, bitwidth: int) -> List[Tuple[int, int]]:
    """Directed (non-random) operand pairs for corner-case coverage."""
    top = modulus - 1
    half = modulus >> 1
    pairs = [
        (0, 0),
        (0, top),
        (1, 1),
        (1, top),
        (top, top),
        (half, half),
        (half, half + 1),
        (top, 1),
    ]
    # Single-bit walks through the multiplier exercise every Booth window.
    for position in range(0, bitwidth, max(1, bitwidth // 8)):
        bit = 1 << position
        if bit < modulus:
            pairs.append((bit, top))
            pairs.append((bit | 1, half))
    return pairs


@dataclass(frozen=True)
class VerificationCase:
    """One checked multiplication."""

    a: int
    b: int
    modulus: int
    expected: int
    accelerator_product: int
    algorithm_product: int
    iteration_cycles: int
    #: The failed checks, e.g. ``("cycle report",)``: a product that is not
    #: the oracle's, or an accelerator report that is not the closed form's.
    failed: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        """Whether every check of this case held."""
        return not self.failed


@dataclass
class VerificationReport:
    """Outcome of one equivalence-checking run."""

    modulus: int
    bitwidth: int
    cases: List[VerificationCase] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of checked multiplications."""
        return len(self.cases)

    @property
    def failures(self) -> List[VerificationCase]:
        """Every mismatching case (empty when the models agree)."""
        return [case for case in self.cases if not case.passed]

    @property
    def passed(self) -> bool:
        """Whether every case matched the oracle."""
        return not self.failures

    @property
    def cycle_counts(self) -> List[int]:
        """Main-loop cycle count of every case (constant for a config)."""
        return [case.iteration_cycles for case in self.cases]

    def constant_time(self) -> bool:
        """Whether the schedule length was operand-independent."""
        return len(set(self.cycle_counts)) <= 1

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} mismatches)"
        cycles = self.cycle_counts[0] if self.cases else 0
        return (
            f"{status}: {self.total} multiplications checked at "
            f"{self.bitwidth} bits, {cycles} main-loop cycles each, "
            f"constant-time={self.constant_time()}"
        )


class EquivalenceChecker:
    """Drives the accelerator, the algorithm and the oracle with one corpus."""

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or ModSRAMConfig()
        self.accelerator = ModSRAMAccelerator(self.config)
        #: The closed form, run on every case the accelerator runs so its
        #: LUT residency (and so its reports) stays in step.
        self.reference = AnalyticalModSRAM(self.config)
        self.algorithm = R4CSALutMultiplier(full_range=self.config.extend_for_full_range)

    def _check_one(self, a: int, b: int, modulus: int) -> VerificationCase:
        expected = (a * b) % modulus
        check = cross_check((self.reference, self.accelerator), a, b, modulus)
        accelerated = check.results[1]
        algorithmic = self.algorithm.multiply(a, b, modulus)
        failed = check.failed
        if algorithmic != expected:
            failed += ("r4csa-lut product",)
        return VerificationCase(
            a=a,
            b=b,
            modulus=modulus,
            expected=expected,
            accelerator_product=accelerated.product,
            algorithm_product=algorithmic,
            iteration_cycles=accelerated.report.iteration_cycles,
            failed=failed,
        )

    def run(
        self,
        modulus: int,
        random_cases: int = 16,
        seed: int = 0,
        include_directed: bool = True,
    ) -> VerificationReport:
        """Check a corpus of multiplications against the oracle.

        The corpus is ``random_cases`` uniform operand pairs plus (by
        default) the directed corner-case patterns.  In paper-mode
        configurations the multiplier operand is masked to keep its top bit
        clear, matching the schedule's precondition.
        """
        if random_cases < 0:
            raise ConfigurationError(
                f"random_cases must be non-negative, got {random_cases}"
            )
        bitwidth = self.config.bitwidth
        report = VerificationReport(modulus=modulus, bitwidth=bitwidth)
        rng = random.Random(seed)

        mask = (1 << bitwidth) - 1
        if not self.config.extend_for_full_range:
            mask >>= 1  # keep the multiplier's top bit clear in paper mode

        pairs: List[Tuple[int, int]] = []
        if include_directed:
            pairs.extend(directed_operands(modulus, bitwidth))
        for _ in range(random_cases):
            pairs.append((rng.randrange(modulus), rng.randrange(modulus)))

        for a, b in pairs:
            report.cases.append(self._check_one(a & mask, b % modulus, modulus))
        return report
