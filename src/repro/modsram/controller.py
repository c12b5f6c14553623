"""ModSRAM controller finite-state machine.

The controller sequences every SRAM operation (precharge, word-line
activation, sense enable, write-back) and the near-memory register
transfers.  In the paper it is a small synthesized Verilog block; here it is
a state machine that owns the cycle counter, enforces the legal phase order
and produces the per-phase cycle accounting the evaluation reports.

The schedule it enforces for the main loop is this six-access pattern:

    IMC-radix4 → writeback-sum → writeback-carry →
    IMC-overflow → writeback-sum → writeback-carry

with the final iteration's last carry write-back elided, giving
``6 * iterations - 1`` main-loop cycles (767 at 256 bits with the paper's
128-iteration schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.errors import ControllerError
from repro.modsram.trace import Phase

__all__ = ["ControllerState", "CycleBudget", "Controller"]


class ControllerState(str, Enum):
    """Top-level states of the controller FSM."""

    IDLE = "idle"
    LOAD = "load"
    PRECOMPUTE = "precompute"
    ITERATE = "iterate"
    FINALIZE = "finalize"
    DONE = "done"


#: Legal state transitions of the FSM.
_TRANSITIONS: Dict[ControllerState, tuple] = {
    ControllerState.IDLE: (ControllerState.LOAD,),
    ControllerState.LOAD: (ControllerState.PRECOMPUTE, ControllerState.ITERATE),
    ControllerState.PRECOMPUTE: (ControllerState.ITERATE,),
    ControllerState.ITERATE: (ControllerState.FINALIZE,),
    ControllerState.FINALIZE: (ControllerState.DONE,),
    ControllerState.DONE: (ControllerState.IDLE,),
}

#: Which trace phases are allowed in which controller state.
_ALLOWED_PHASES: Dict[ControllerState, tuple] = {
    ControllerState.LOAD: (Phase.LOAD_MULTIPLIER, Phase.PRECOMPUTE),
    ControllerState.PRECOMPUTE: (Phase.PRECOMPUTE,),
    ControllerState.ITERATE: (
        Phase.IMC_RADIX4,
        Phase.WRITEBACK_SUM,
        Phase.WRITEBACK_CARRY,
        Phase.IMC_OVERFLOW,
    ),
    ControllerState.FINALIZE: (Phase.FINALIZE,),
}


@dataclass
class CycleBudget:
    """Per-phase cycle counters for one multiplication."""

    load_cycles: int = 0
    precompute_cycles: int = 0
    iteration_cycles: int = 0
    finalize_cycles: int = 0


class Controller:
    """The FSM driving one ModSRAM macro."""

    def __init__(self, iterations: int) -> None:
        if iterations <= 0:
            raise ControllerError(f"iterations must be positive, got {iterations}")
        self.iterations = iterations
        self.state = ControllerState.IDLE
        self.budget = CycleBudget()
        self.cycle = 0
        self.current_iteration: Optional[int] = None

    # ------------------------------------------------------------------ #
    # state machine
    # ------------------------------------------------------------------ #
    def transition(self, target: ControllerState) -> None:
        """Move to ``target``, enforcing the legal transition graph."""
        if target not in _TRANSITIONS[self.state]:
            raise ControllerError(
                f"illegal controller transition {self.state.value} -> {target.value}"
            )
        self.state = target
        if target is ControllerState.IDLE:
            self.budget = CycleBudget()
            self.cycle = 0
            self.current_iteration = None

    def begin_iteration(self, iteration: int) -> None:
        """Mark the start of a main-loop iteration."""
        if self.state is not ControllerState.ITERATE:
            raise ControllerError(
                f"cannot iterate while in state {self.state.value}"
            )
        if not 0 <= iteration < self.iterations:
            raise ControllerError(
                f"iteration {iteration} outside 0..{self.iterations - 1}"
            )
        expected = 0 if self.current_iteration is None else self.current_iteration + 1
        if iteration != expected:
            raise ControllerError(
                f"iterations must be sequential: expected {expected}, got {iteration}"
            )
        self.current_iteration = iteration

    def tick(self, phase: Phase) -> int:
        """Advance one clock cycle in ``phase``; returns the cycle index."""
        allowed = _ALLOWED_PHASES.get(self.state, ())
        if phase not in allowed:
            raise ControllerError(
                f"phase {phase.value} is not legal in controller state "
                f"{self.state.value}"
            )
        index = self.cycle
        self.cycle += 1
        if self.state is ControllerState.LOAD:
            self.budget.load_cycles += 1
        elif self.state is ControllerState.PRECOMPUTE:
            self.budget.precompute_cycles += 1
        elif self.state is ControllerState.ITERATE:
            self.budget.iteration_cycles += 1
        elif self.state is ControllerState.FINALIZE:
            self.budget.finalize_cycles += 1
        return index

