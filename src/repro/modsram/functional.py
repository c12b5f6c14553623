"""Functional fidelity tier: the R4CSA-LUT kernel without the SRAM substrate.

:class:`FunctionalModSRAM` runs the exact algorithm body of the
cycle-accurate model (:mod:`repro.modsram.kernel`) on a plain register file:
rows are Python integers, the three-row logic-SA access is one
:func:`~repro.core.carry_save.xor3_maj`, and nothing per-cycle is
materialised.  The product is therefore bit-identical to the cycle tier by
construction, while no array, decoder, controller or trace is modelled —
this is the tier the full-workload studies (ECDSA signing, NTT/MSM batches,
chip scale-out) run on.

What it reports: the product, the LUT-reuse flag and *operation counts*
(word-line writes/reads, logic-SA accesses, near-memory cycles) accumulated
in the same :class:`~repro.sram.stats.ArrayStats` currency the real array
collects — no cycle or energy accounting (that is the analytical tier's
job, see :mod:`repro.modsram.analytical`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.carry_save import xor3_maj
from repro.instrumentation import OperationCounter
from repro.modsram.config import ModSRAMConfig
from repro.modsram.controller import ControllerState
from repro.modsram.datapath import NearMemoryDatapath
from repro.modsram.kernel import (
    NMC_COUNTER_OF_KIND,
    KernelHost,
    LutResidency,
    run_kernel,
)
from repro.modsram.memory_map import MemoryMap
from repro.modsram.trace import Phase
from repro.sram.stats import ArrayStats

__all__ = ["FunctionalResult", "FunctionalModSRAM", "FastHost"]


@dataclass(frozen=True)
class FunctionalResult:
    """Product plus operation counts of one functional-tier multiplication."""

    product: int
    lut_reused: bool
    extra_overflow_folds: int
    finalize_subtractions: int
    #: Operation counts of this multiplication alone (not cumulative).
    operations: Dict[str, int]
    #: Array-access profile of this multiplication alone; feed it straight
    #: to :meth:`repro.sram.energy.EnergyModel.from_stats` for per-operation
    #: energy attribution.
    stats: ArrayStats


class FastHost(KernelHost):
    """Kernel host backed by a plain register file instead of an SRAM array.

    Rows live in a list of integers; the logic-SA access is one word-level
    XOR3/MAJ.  Access statistics accumulate into the same
    :class:`ArrayStats` shape the behavioural array produces, so energy
    models and reports can consume either tier interchangeably.
    """

    def __init__(self, config: ModSRAMConfig) -> None:
        self.config = config
        self.memory_map = MemoryMap(config)
        self.datapath = NearMemoryDatapath(config)
        self.lut_residency = LutResidency()
        self.stats = ArrayStats()
        self.counter = OperationCounter("modsram-functional")
        self._rows: List[int] = [0] * config.rows
        self._columns = config.columns

    # -- kernel-host interface ---------------------------------------- #
    def transition(self, state: ControllerState) -> None:
        """No controller FSM at this tier."""

    def begin_iteration(self, iteration: int) -> None:
        """No per-iteration sequencing checks at this tier."""

    def write_row(
        self,
        phase: Phase,
        row: int,
        value: int,
        iteration: Optional[int] = None,
        note: str = "",
    ) -> None:
        self._rows[row] = value
        self.stats.record_write(self._columns)
        self.counter.increment("memory_write")

    def read_row(
        self,
        phase: Phase,
        row: int,
        iteration: Optional[int] = None,
        note: str = "",
    ) -> int:
        self.stats.record_read(1, compute=False)
        self.counter.increment("memory_read")
        return self._rows[row]

    def nmc_cycle(
        self,
        phase: Phase,
        note: str,
        iteration: Optional[int] = None,
        kind: str = "nmc",
    ) -> None:
        counter_name = NMC_COUNTER_OF_KIND.get(kind)
        if counter_name is not None:
            self.counter.increment(counter_name)

    def imc_access(
        self,
        phase: Phase,
        rows: Tuple[int, int, int],
        iteration: int,
        digit: Optional[int] = None,
        overflow_index: Optional[int] = None,
    ) -> Tuple[int, int]:
        data = self._rows
        self.stats.record_read(3, compute=True)
        self.counter.increment("imc_access")
        return xor3_maj(data[rows[0]], data[rows[1]], data[rows[2]])


class FunctionalModSRAM:
    """The functional fidelity tier: products and operation counts only."""

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or ModSRAMConfig()
        self.host = FastHost(self.config)

    @property
    def counter(self) -> OperationCounter:
        """Cumulative operation counts across every multiplication."""
        return self.host.counter

    @property
    def stats(self) -> ArrayStats:
        """Cumulative access statistics (ArrayStats currency)."""
        return self.host.stats

    def multiply(self, a: int, b: int, modulus: int) -> FunctionalResult:
        """Compute ``a * b mod modulus`` through the shared kernel."""
        host = self.host
        before = host.counter.as_dict()
        stats_before = host.stats.snapshot()
        outcome = run_kernel(host, a, b, modulus)
        host.counter.increment("modmul")
        after = host.counter.as_dict()
        delta = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        return FunctionalResult(
            product=outcome.product,
            lut_reused=outcome.lut_reused,
            extra_overflow_folds=outcome.extra_overflow_folds,
            finalize_subtractions=outcome.finalize_subtractions,
            operations=delta,
            stats=host.stats.delta_since(stats_before),
        )

    def multiply_many(
        self, pairs: List[Tuple[int, int]], modulus: int
    ) -> List[FunctionalResult]:
        """Multiply a batch of operand pairs, reusing LUTs where possible."""
        return [self.multiply(a, b, modulus) for a, b in pairs]
