"""Cycle-level model of the ModSRAM accelerator.

:class:`ModSRAMAccelerator` is the **cycle** fidelity tier of the layered
simulation core: it executes the shared R4CSA-LUT algorithm body
(:mod:`repro.modsram.kernel`) on the behavioural SRAM substrate.  Every LUT
entry, operand and intermediate lives in an actual simulated word line,
every carry-save addition is performed by the logic-SA sense-amplifier model
on three simultaneously activated rows, every write-back goes through the
write port, and the controller FSM charges exactly one clock cycle per array
access.  The result is both the product (verified against the big-integer
oracle in the tests) and a cycle/area/energy report that reproduces the
paper's evaluation numbers (767 main-loop cycles at 256 bits under the
paper's schedule).

The default run allocates no per-cycle events at all; pass ``trace=True``
to collect the full Figure 3-style walk-through.  The cheaper
**analytical** tier lives in :mod:`repro.modsram.analytical` and runs the
same recurrence without the SRAM substrate.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.instrumentation import OperationCounter
from repro.modsram.config import ModSRAMConfig
from repro.modsram.controller import Controller, ControllerState
from repro.modsram.datapath import NearMemoryDatapath
from repro.modsram.kernel import NMC_COUNTER_OF_KIND, LutResidency, run_kernel
from repro.modsram.memory_map import MemoryMap
from repro.modsram.report import CycleReport, MultiplicationResult
from repro.modsram.trace import CycleEvent, ExecutionTrace, Phase
from repro.sram.array import SramArray
from repro.sram.decoder import DecoderBank
from repro.sram.sense_amp import LogicSenseAmpModule

__all__ = ["CycleReport", "MultiplicationResult", "ModSRAMAccelerator"]


class ModSRAMAccelerator:
    """Executes 256-bit (or any configured width) modular multiplication in SRAM.

    The host :func:`~repro.modsram.kernel.run_kernel` runs against: it
    provides the storage rows, the near-memory datapath registers and the
    per-step accounting, and each of its access methods is one clock cycle.
    """

    tier = "cycle"

    def __init__(
        self, config: Optional[ModSRAMConfig] = None, trace: bool = False
    ) -> None:
        self.config = config or ModSRAMConfig()
        self.memory_map = MemoryMap(self.config)
        self.array = SramArray(
            rows=self.config.rows,
            cols=self.config.columns,
            cell=self.config.cell,
            name="modsram-array",
        )
        self.sense_module = LogicSenseAmpModule(
            columns=self.config.columns, parameters=self.config.sense
        )
        self.decoders = DecoderBank.for_array(self.config.rows)
        self.datapath = NearMemoryDatapath(self.config)
        self.counter = OperationCounter("modsram")
        self.trace_enabled = trace
        #: The last multiplication's trace, rebuilt on each multiply; its
        #: events are only constructed with ``trace=True``.
        self.trace = ExecutionTrace(enabled=trace)
        self._controller: Optional[Controller] = None
        # Resident LUT state for data reuse across multiplications.
        self.lut_residency = LutResidency()

    # ------------------------------------------------------------------ #
    # kernel host (each array access is one clock cycle)
    # ------------------------------------------------------------------ #
    def transition(self, state: ControllerState) -> None:
        """Move the controller FSM."""
        assert self._controller is not None
        self._controller.transition(state)

    def begin_iteration(self, iteration: int) -> None:
        """Mark the start of a main-loop iteration."""
        assert self._controller is not None
        self._controller.begin_iteration(iteration)

    def write_row(
        self,
        phase: Phase,
        row: int,
        value: int,
        iteration: Optional[int] = None,
        note: str = "",
    ) -> None:
        """Write a full row through the write port (one cycle)."""
        self.decoders.write_decoder.decode([row])
        self.array.write_row(row, value)
        cycle = self._controller.tick(phase)
        self.counter.increment("memory_write")
        if self.trace_enabled:
            self.trace.record(
                CycleEvent(
                    cycle=cycle,
                    phase=phase,
                    iteration=iteration,
                    rows_written=(row,),
                    note=note,
                )
            )

    def read_row(
        self,
        phase: Phase,
        row: int,
        iteration: Optional[int] = None,
        note: str = "",
    ) -> int:
        """Read one row through the read port (one cycle)."""
        self.decoders.read_decoder.decode([row])
        readout = self.array.activate_rows([row])
        cycle = self._controller.tick(phase)
        self.counter.increment("memory_read")
        if self.trace_enabled:
            self.trace.record(
                CycleEvent(
                    cycle=cycle,
                    phase=phase,
                    iteration=iteration,
                    rows_read=(row,),
                    note=note,
                )
            )
        return readout.exact_value()

    def nmc_cycle(
        self,
        phase: Phase,
        note: str,
        iteration: Optional[int] = None,
        kind: str = "nmc",
    ) -> None:
        """One clock cycle spent purely in the near-memory circuit.

        ``kind`` names the operation for the accounting:
        ``"lut_compute"``, ``"full_add"`` or ``"subtract"``.
        """
        cycle = self._controller.tick(phase)
        counter_name = NMC_COUNTER_OF_KIND.get(kind)
        if counter_name is not None:
            self.counter.increment(counter_name)
        if self.trace_enabled:
            self.trace.record(
                CycleEvent(cycle=cycle, phase=phase, iteration=iteration, note=note)
            )

    def imc_access(
        self,
        phase: Phase,
        rows: Tuple[int, int, int],
        iteration: int,
        digit: Optional[int] = None,
        overflow_index: Optional[int] = None,
    ) -> Tuple[int, int]:
        """One logic-SA access: activate three rows, sense XOR3 and MAJ."""
        self.decoders.read_decoder.decode(list(rows))
        readout = self.array.activate_rows(list(rows))
        result = self.sense_module.evaluate(readout)
        cycle = self._controller.tick(phase)
        self.counter.increment("imc_access")
        if self.trace_enabled:
            self.trace.record(
                CycleEvent(
                    cycle=cycle,
                    phase=phase,
                    iteration=iteration,
                    rows_read=rows,
                    digit=digit,
                    overflow_index=overflow_index,
                )
            )
        return result.xor3, result.maj

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def multiply(self, a: int, b: int, modulus: int) -> MultiplicationResult:
        """Compute ``a * b mod modulus`` on the simulated macro."""
        self.trace = ExecutionTrace(enabled=self.trace_enabled)
        self._controller = Controller(self.config.iterations)

        outcome = run_kernel(self, a, b, modulus)

        budget = self._controller.budget
        report = CycleReport(
            iterations=self.config.iterations,
            load_cycles=budget.load_cycles,
            precompute_cycles=budget.precompute_cycles,
            iteration_cycles=budget.iteration_cycles,
            finalize_cycles=budget.finalize_cycles,
            extra_overflow_folds=outcome.extra_overflow_folds,
            lut_reused=outcome.lut_reused,
            frequency_mhz=self.config.frequency_mhz,
        )
        self.counter.increment("modmul")
        return MultiplicationResult(
            product=outcome.product, report=report, trace=self.trace
        )

    # ------------------------------------------------------------------ #
    # reporting helpers
    # ------------------------------------------------------------------ #
    def energy_report(self):
        """Energy breakdown implied by the accesses performed so far."""
        return self.config.energy.from_stats(
            self.array.stats, self.datapath.stats.register_bits_written
        )
