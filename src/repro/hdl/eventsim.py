"""Event-driven simulation of the structural IR, and the HDL fidelity tier.

:class:`EventSimulator` executes a flattened :class:`~repro.hdl.ir.Module`
with classic discrete-event semantics: an event wheel keyed on the cycle
number for scheduled stimulus, delta-cycle settling of the combinational
network between clock edges, and nonblocking register/memory commits at the
edge.  Expressions are compiled once to Python closures, so a multiply on
the elaborated macro runs in milliseconds, not minutes.

On top of the simulator sit the co-simulation harness
(:class:`HdlMacroSim`, the start/done handshake protocol of the macro) and
:class:`HdlModSRAM`, the third fidelity tier: it drives the elaborated RTL
testbench-style and reports the *measured* per-phase cycle counts in the
same :class:`~repro.modsram.report.CycleReport` shape as the other tiers —
which the tests then assert equal to
:class:`~repro.modsram.analytical.AnalyticalCostModel` field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ControllerError
from repro.hdl.elaborate import MacroDesign, elaborate_macro
from repro.hdl.ir import (
    Assign,
    BinOp,
    Cat,
    Const,
    Expr,
    HdlError,
    MemRead,
    MemWrite,
    Module,
    Mux,
    Ref,
    SAssign,
    SIf,
    Slice,
    Stmt,
    UnOp,
)
from repro.modsram.config import ModSRAMConfig
from repro.modsram.kernel import LutResidency, validate_operands
from repro.modsram.report import CycleReport, MultiplicationResult
from repro.modsram.trace import ExecutionTrace

__all__ = ["EventSimulator", "HdlMacroSim", "HdlRunTrace", "HdlModSRAM"]

_ExprFn = Callable[[Dict[str, int], Dict[str, List[int]]], int]


def _mask(width: int) -> int:
    return (1 << width) - 1


class EventSimulator:
    """Discrete-event simulator for one (flattened) IR module.

    The public surface is testbench-shaped: :meth:`poke` inputs,
    :meth:`peek` any signal, :meth:`at` to schedule a poke on the event
    wheel, :meth:`step` to advance whole clock cycles.  ``events`` counts
    every signal-value change (combinational settling plus register and
    memory commits) — the quantity ``benchmarks/bench_hdl.py`` reports as
    events per second.
    """

    def __init__(self, module: Module) -> None:
        module.validate()
        flat = module.flatten()
        self.module = flat
        self._widths = flat.signal_widths()
        self._mem_decls = flat.memory_table()
        self.values: Dict[str, int] = {name: 0 for name in self._widths}
        for state in flat.fsm_states:
            self.values[state.name] = state.value
        for reg in flat.regs:
            self.values[reg.name] = reg.reset
        self.memories: Dict[str, List[int]] = {
            name: [0] * decl.depth for name, decl in self._mem_decls.items()
        }
        self._reg_masks = {reg.name: _mask(reg.width) for reg in flat.regs}
        self._input_ports = {
            port.name for port in flat.ports if port.direction == "in"
        }
        self.cycle = 0
        self.events = 0
        self.delta_passes = 0
        self._wheel: Dict[int, List[Tuple[str, int]]] = {}
        self._assign_fns = self._compile_assigns()
        self._process_fns = [
            self._compile_stmts(process.body) for process in flat.processes
        ]
        self.settle()

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _compile_expr(self, expr: Expr) -> _ExprFn:
        if isinstance(expr, Const):
            value = expr.value
            return lambda s, m: value
        if isinstance(expr, Ref):
            name = expr.name
            return lambda s, m: s[name]
        if isinstance(expr, UnOp):
            fn = self._compile_expr(expr.operand)
            return lambda s, m: 0 if fn(s, m) else 1
        if isinstance(expr, BinOp):
            left = self._compile_expr(expr.left)
            right = self._compile_expr(expr.right)
            op = expr.op
            if op == "add":
                return lambda s, m: left(s, m) + right(s, m)
            if op == "sub":
                return lambda s, m: left(s, m) - right(s, m)
            if op == "and":
                return lambda s, m: left(s, m) & right(s, m)
            if op == "or":
                return lambda s, m: left(s, m) | right(s, m)
            if op == "xor":
                return lambda s, m: left(s, m) ^ right(s, m)
            if op == "shl":
                amount = expr.right.value  # Const, enforced by validate()
                return lambda s, m: left(s, m) << amount
            if op == "shr":
                amount = expr.right.value
                return lambda s, m: left(s, m) >> amount
            if op == "eq":
                return lambda s, m: 1 if left(s, m) == right(s, m) else 0
            if op == "ne":
                return lambda s, m: 1 if left(s, m) != right(s, m) else 0
            if op == "lt":
                return lambda s, m: 1 if left(s, m) < right(s, m) else 0
            if op == "le":
                return lambda s, m: 1 if left(s, m) <= right(s, m) else 0
            if op == "gt":
                return lambda s, m: 1 if left(s, m) > right(s, m) else 0
            if op == "ge":
                return lambda s, m: 1 if left(s, m) >= right(s, m) else 0
            raise HdlError(f"unknown binary op {op!r}")
        if isinstance(expr, Mux):
            cond = self._compile_expr(expr.cond)
            if_true = self._compile_expr(expr.if_true)
            if_false = self._compile_expr(expr.if_false)
            return lambda s, m: if_true(s, m) if cond(s, m) else if_false(s, m)
        if isinstance(expr, Slice):
            fn = self._compile_expr(expr.ref)
            lsb = expr.lsb
            mask = _mask(expr.msb - expr.lsb + 1)
            return lambda s, m: (fn(s, m) >> lsb) & mask
        if isinstance(expr, Cat):
            parts = [
                (
                    self._compile_expr(part),
                    expr_width_of(part, self._widths, self._mem_decls),
                )
                for part in expr.parts
            ]

            def cat(s: Dict[str, int], m: Dict[str, List[int]]) -> int:
                acc = 0
                for fn, width in parts:
                    acc = (acc << width) | (fn(s, m) & _mask(width))
                return acc

            return cat
        if isinstance(expr, MemRead):
            name = expr.memory
            addr = self._compile_expr(expr.addr)
            depth = self._mem_decls[name].depth

            def read(s: Dict[str, int], m: Dict[str, List[int]]) -> int:
                index = addr(s, m)
                if not 0 <= index < depth:
                    raise HdlError(
                        f"memory {name!r} read out of range: {index}"
                    )
                return m[name][index]

            return read
        raise HdlError(f"not an expression: {expr!r}")

    def _expr_deps(self, expr: Expr, out: set) -> None:
        if isinstance(expr, Ref):
            out.add(expr.name)
        elif isinstance(expr, UnOp):
            self._expr_deps(expr.operand, out)
        elif isinstance(expr, BinOp):
            self._expr_deps(expr.left, out)
            self._expr_deps(expr.right, out)
        elif isinstance(expr, Mux):
            self._expr_deps(expr.cond, out)
            self._expr_deps(expr.if_true, out)
            self._expr_deps(expr.if_false, out)
        elif isinstance(expr, Slice):
            self._expr_deps(expr.ref, out)
        elif isinstance(expr, Cat):
            for part in expr.parts:
                self._expr_deps(part, out)
        elif isinstance(expr, MemRead):
            self._expr_deps(expr.addr, out)

    def _compile_assigns(self) -> List[Tuple[str, int, _ExprFn]]:
        """Topologically order the continuous assigns and compile them.

        Memory contents only change at clock edges, so a ``MemRead`` does
        not create a combinational dependency; a cycle among the wires is a
        genuine combinational loop and raises :class:`HdlError`.
        """
        assigns = list(self.module.assigns)
        driven = {assign.target for assign in assigns}
        deps: Dict[str, set] = {}
        for assign in assigns:
            refs: set = set()
            self._expr_deps(assign.expr, refs)
            deps[assign.target] = {name for name in refs if name in driven}
        ordered: List[Assign] = []
        placed: set = set()
        pending = assigns
        while pending:
            progress = []
            stuck = []
            for assign in pending:
                if deps[assign.target] <= placed:
                    progress.append(assign)
                else:
                    stuck.append(assign)
            if not progress:
                loop = sorted(assign.target for assign in stuck)
                raise HdlError(f"combinational loop through {loop}")
            for assign in progress:
                ordered.append(assign)
                placed.add(assign.target)
            pending = stuck
        return [
            (
                assign.target,
                _mask(self._widths[assign.target]),
                self._compile_expr(assign.expr),
            )
            for assign in ordered
        ]

    def _compile_stmts(
        self, body: Tuple[Stmt, ...]
    ) -> Callable[[Dict[str, int], Dict[str, List[int]], Dict[str, int], list], None]:
        compiled = []
        for stmt in body:
            if isinstance(stmt, SAssign):
                target = stmt.target
                fn = self._compile_expr(stmt.expr)
                compiled.append(
                    lambda s, m, regs, mems, target=target, fn=fn: regs.__setitem__(
                        target, fn(s, m)
                    )
                )
            elif isinstance(stmt, MemWrite):
                name = stmt.memory
                addr = self._compile_expr(stmt.addr)
                data = self._compile_expr(stmt.data)
                compiled.append(
                    lambda s, m, regs, mems, name=name, addr=addr, data=data: mems.append(
                        (name, addr(s, m), data(s, m))
                    )
                )
            elif isinstance(stmt, SIf):
                cond = self._compile_expr(stmt.cond)
                then = self._compile_stmts(stmt.then)
                orelse = self._compile_stmts(stmt.orelse) if stmt.orelse else None

                def run_if(s, m, regs, mems, cond=cond, then=then, orelse=orelse):
                    if cond(s, m):
                        then(s, m, regs, mems)
                    elif orelse is not None:
                        orelse(s, m, regs, mems)

                compiled.append(run_if)
            else:
                raise HdlError(f"not a statement: {stmt!r}")

        def run(s, m, regs, mems, compiled=tuple(compiled)):
            for fn in compiled:
                fn(s, m, regs, mems)

        return run

    # ------------------------------------------------------------------ #
    # testbench surface
    # ------------------------------------------------------------------ #
    def poke(self, name: str, value: int) -> None:
        """Drive an input port (takes effect at the next :meth:`settle`)."""
        if name not in self._input_ports:
            raise HdlError(f"{name!r} is not an input port")
        self.values[name] = value & _mask(self._widths[name])

    def peek(self, name: str) -> int:
        """Read the settled value of any signal."""
        try:
            return self.values[name]
        except KeyError:
            raise HdlError(f"unknown signal {name!r}") from None

    def peek_memory(self, name: str, addr: int) -> int:
        """Read one memory row directly (backdoor, no cycle charged)."""
        return self.memories[name][addr]

    def at(self, cycle: int, name: str, value: int) -> None:
        """Schedule a poke on the event wheel for a future cycle."""
        if cycle < self.cycle:
            raise HdlError(
                f"cannot schedule at cycle {cycle}; now at {self.cycle}"
            )
        self._wheel.setdefault(cycle, []).append((name, value))

    def settle(self) -> int:
        """Run delta cycles until the combinational network is stable.

        Assigns are evaluated in topological order, so the first pass
        normally settles everything and the second confirms the fixpoint;
        the pass count is bounded to catch oscillation through future IR
        extensions.  Returns the number of delta passes taken.
        """
        values = self.values
        memories = self.memories
        passes = 0
        limit = len(self._assign_fns) + 2
        while True:
            passes += 1
            changed = 0
            for target, mask, fn in self._assign_fns:
                value = fn(values, memories) & mask
                if values[target] != value:
                    values[target] = value
                    changed += 1
            self.events += changed
            if not changed:
                break
            if passes > limit:
                raise HdlError("combinational network failed to settle")
        self.delta_passes += passes
        return passes

    def step(self, cycles: int = 1) -> None:
        """Advance whole clock cycles (wheel → settle → edge → settle)."""
        for _ in range(cycles):
            for name, value in self._wheel.pop(self.cycle, ()):
                self.poke(name, value)
            self.settle()
            reg_updates: Dict[str, int] = {}
            mem_updates: list = []
            for process in self._process_fns:
                process(self.values, self.memories, reg_updates, mem_updates)
            for name, value in reg_updates.items():
                value &= self._reg_masks[name]
                if self.values[name] != value:
                    self.values[name] = value
                    self.events += 1
            for name, addr, data in mem_updates:
                decl = self._mem_decls[name]
                if not 0 <= addr < decl.depth:
                    raise HdlError(f"memory {name!r} write out of range: {addr}")
                data &= _mask(decl.width)
                if self.memories[name][addr] != data:
                    self.memories[name][addr] = data
                    self.events += 1
            self.cycle += 1
            self.settle()

    def run_until(self, predicate: Callable[["EventSimulator"], bool], max_cycles: int) -> int:
        """Step until ``predicate(self)`` holds; returns cycles consumed."""
        for consumed in range(max_cycles + 1):
            if predicate(self):
                return consumed
            self.step()
        raise HdlError(f"predicate still false after {max_cycles} cycles")


def expr_width_of(expr: Expr, widths, mem_decls) -> int:
    """Width helper bridging :func:`repro.hdl.ir.expr_width` to Memory decls."""
    from repro.hdl.ir import expr_width

    return expr_width(
        expr, widths, {name: decl.width for name, decl in mem_decls.items()}
    )


# --------------------------------------------------------------------------- #
# co-simulation harness
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class HdlRunTrace:
    """Measured outcome of one multiplication on the simulated macro."""

    product: int
    load_cycles: int
    precompute_cycles: int
    iteration_cycles: int
    finalize_cycles: int
    extra_folds: int

    @property
    def total_cycles(self) -> int:
        """Every cycle from the start pulse to ``done``."""
        return (
            self.load_cycles
            + self.precompute_cycles
            + self.iteration_cycles
            + self.finalize_cycles
        )


class HdlMacroSim:
    """Protocol driver for the elaborated macro (start/done handshake).

    Owns one :class:`EventSimulator` over the flattened macro and knows the
    top-level pin protocol: present operands, pulse ``start``, count cycles
    per controller state until ``done``, read ``product``.
    """

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or ModSRAMConfig()
        self.design: MacroDesign = elaborate_macro(self.config)
        self.sim = EventSimulator(self.design.top)
        self._states = self.design.state_values

    def run(self, a: int, b: int, modulus: int, skip_precompute: bool) -> HdlRunTrace:
        """Execute one multiplication and measure its per-phase schedule."""
        sim = self.sim
        states = self._states
        if sim.peek("state") != states["ST_IDLE"]:
            raise ControllerError("macro is not idle at start of run")
        sim.poke("op_a", a)
        sim.poke("op_b", b)
        sim.poke("op_p", modulus)
        sim.poke("skip_pc", 1 if skip_precompute else 0)
        sim.poke("start", 1)
        sim.step()  # IDLE -> LOAD edge
        sim.poke("start", 0)

        counts = {
            states["ST_LOAD"]: 0,
            states["ST_PRECOMPUTE"]: 0,
            states["ST_ITERATE"]: 0,
            states["ST_FINALIZE"]: 0,
        }
        extra_folds = 0
        # Generous bound: the schedule is ~9 cycles per iteration even with
        # one extra fold per iteration, plus load/LUT-fill/finalise slack.
        guard = 12 * self.config.iterations + 4 * self.config.rows + 64
        done = states["ST_DONE"]
        while sim.peek("state") != done:
            state = sim.peek("state")
            if state not in counts:
                raise ControllerError(f"macro in unexpected state {state}")
            counts[state] += 1
            extra_folds += sim.peek("extra_fold")
            sim.step()
            guard -= 1
            if guard < 0:
                raise ControllerError(
                    "HDL macro did not reach DONE within the cycle budget"
                )
        product = sim.peek("product")
        sim.step()  # DONE -> IDLE, ready for the next run
        return HdlRunTrace(
            product=product,
            load_cycles=counts[states["ST_LOAD"]],
            precompute_cycles=counts[states["ST_PRECOMPUTE"]],
            iteration_cycles=counts[states["ST_ITERATE"]],
            finalize_cycles=counts[states["ST_FINALIZE"]],
            extra_folds=extra_folds,
        )


class HdlModSRAM:
    """The ``hdl`` fidelity tier: co-simulation of the elaborated RTL.

    Same ``multiply`` / ``multiply_many`` surface as the other tiers, but
    the product comes out of the simulated datapath and the
    :class:`~repro.modsram.report.CycleReport` fields are *measured* by
    counting controller states — nothing is taken from the closed-form
    algebra, which is exactly what makes the field-by-field comparison
    against :class:`~repro.modsram.analytical.AnalyticalCostModel` a real
    cross-check.
    """

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        self.config = config or ModSRAMConfig()
        self.macro = HdlMacroSim(self.config)
        self.lut_residency = LutResidency()

    def multiply(self, a: int, b: int, modulus: int) -> MultiplicationResult:
        """Compute ``a * b mod modulus`` on the simulated macro."""
        validate_operands(self.config, a, b, modulus)
        reused = self.lut_residency.matches(b, modulus)
        trace = self.macro.run(a, b, modulus, skip_precompute=reused)
        self.lut_residency.retain(b, modulus)
        report = CycleReport(
            iterations=self.config.iterations,
            load_cycles=trace.load_cycles,
            precompute_cycles=trace.precompute_cycles,
            iteration_cycles=trace.iteration_cycles,
            finalize_cycles=trace.finalize_cycles,
            extra_overflow_folds=trace.extra_folds,
            lut_reused=reused,
            frequency_mhz=self.config.frequency_mhz,
        )
        return MultiplicationResult(
            product=trace.product,
            report=report,
            trace=ExecutionTrace(enabled=False),
        )

    def multiply_many(
        self, pairs: List[Tuple[int, int]], modulus: int
    ) -> List[MultiplicationResult]:
        """Multiply a batch of operand pairs, reusing resident LUTs."""
        return [self.multiply(a, b, modulus) for a, b in pairs]
