"""Event-driven simulation of the structural IR, and the HDL fidelity tier.

:class:`EventSimulator` executes a flattened :class:`~repro.hdl.ir.Module`
with classic cycle semantics: settling of the combinational network
between clock edges, and nonblocking register/memory commits at the edge.
At construction the netlist is compiled to Python source: ``settle``
evaluates every continuous assign once, in topological order, with the
wires in locals, and ``edge`` runs every clocked process on the pre-edge
values and then commits the registers and memory rows.  A 256-bit
multiply on the elaborated macro takes milliseconds.

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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
    expr_width,
)
from repro.modsram.config import ModSRAMConfig
from repro.modsram.kernel import LutResidency, validate_operands
from repro.modsram.report import CycleReport, MultiplicationResult
from repro.modsram.trace import ExecutionTrace

__all__ = ["EventSimulator", "HdlMacroSim", "HdlRunTrace", "HdlModSRAM"]

_NetFn = Callable[[Dict[str, int], Dict[str, List[int]]], int]

_OPERATORS = {
    "add": "+", "sub": "-", "and": "&", "or": "|", "xor": "^",
    "shl": "<<", "shr": ">>",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}
_COMPARISONS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))

#: Constants of more bits are bound as names, keeping the source small.
_LITERAL_BITS = 64


def _mask(width: int) -> int:
    return (1 << width) - 1


def _children(expr: Expr) -> Tuple[Expr, ...]:
    if isinstance(expr, UnOp):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, Mux):
        return (expr.cond, expr.if_true, expr.if_false)
    if isinstance(expr, Slice):
        return (expr.ref,)
    if isinstance(expr, Cat):
        return expr.parts
    if isinstance(expr, MemRead):
        return (expr.addr,)
    return ()


def _nodes(expr: Expr) -> Iterator[Expr]:
    yield expr
    for child in _children(expr):
        yield from _nodes(child)


def _statement_exprs(body: Tuple[Stmt, ...]) -> Iterator[Expr]:
    for stmt in body:
        if isinstance(stmt, SAssign):
            yield stmt.expr
        elif isinstance(stmt, MemWrite):
            yield stmt.addr
            yield stmt.data
        elif isinstance(stmt, SIf):
            yield stmt.cond
            yield from _statement_exprs(stmt.then)
            yield from _statement_exprs(stmt.orelse)
        else:
            raise HdlError(f"not a statement: {stmt!r}")


def _topological(assigns: Tuple[Assign, ...]) -> List[Assign]:
    """Order the continuous assigns so each follows every wire it reads.

    Memory contents only change at clock edges, so a ``MemRead`` does not
    create a combinational dependency; a cycle among the wires is a
    genuine combinational loop and raises :class:`HdlError`.
    """
    driven = {assign.target for assign in assigns}
    deps = {
        assign.target: {
            node.name
            for node in _nodes(assign.expr)
            if isinstance(node, Ref) and node.name in driven
        }
        for assign in assigns
    }
    ordered: List[Assign] = []
    placed: set = set()
    pending = list(assigns)
    while pending:
        progress = [assign for assign in pending if deps[assign.target] <= placed]
        if not progress:
            loop = sorted(assign.target for assign in pending)
            raise HdlError(f"combinational loop through {loop}")
        ordered.extend(progress)
        placed.update(assign.target for assign in progress)
        pending = [assign for assign in pending if assign.target not in placed]
    return ordered


def _out_of_range(memory: str, access: str, index: int) -> int:
    raise HdlError(f"memory {memory!r} {access} out of range: {index}")


class _Codegen:
    """Python source for the ``settle`` and ``edge`` functions of a netlist.

    ``settle`` keeps every wire in a local and loads each other signal it
    reads once; ``edge`` loads a signal only if it reads it more than
    once.  FSM states are literals, and constants wider than
    ``_LITERAL_BITS`` are bound as names.  An expression evaluates to
    exactly the Python integer its IR node denotes (a ``sub`` may go
    negative), and a target is masked to its width unless its expression
    provably fits.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.widths = module.signal_widths()
        self.memories = module.memory_table()
        self.memory_widths = {
            name: decl.width for name, decl in self.memories.items()
        }
        self.states = {state.name: str(state.value) for state in module.fsm_states}
        self.namespace: Dict[str, object] = {"_oob": _out_of_range}
        self.constants: Dict[int, str] = {}
        self.reads: Dict[str, str] = {}
        self.temps = 0

    # -- functions -------------------------------------------------------- #
    def settle(self, ordered: List[Assign]) -> _NetFn:
        driven = {assign.target for assign in ordered}
        lines = self.loads([assign.expr for assign in ordered], driven, lazy=False)
        for assign in ordered:
            name, local = repr(assign.target), self.local(assign.target)
            self.reads[assign.target] = local
            lines += [
                f"    {local} = {self.masked(assign.expr, self.widths[assign.target])}",
                f"    if {local} != values[{name}]:",
                f"        values[{name}] = {local}",
                "        events += 1",
            ]
        return self.define("settle", lines)

    def edge(self) -> _NetFn:
        processes = self.module.processes
        exprs = [expr for process in processes for expr in _statement_exprs(process.body)]
        lines = self.loads(exprs, set(), lazy=True) + ["    regs = {}"]
        writes: List[MemWrite] = []
        body: List[str] = []
        for process in processes:
            self.statements(process.body, "    ", body, writes)
        lines += [f"    a{site} = None" for site in range(len(writes))] + body
        lines += [
            "    for name, value in regs.items():",
            "        if values[name] != value:",
            "            values[name] = value",
            "            events += 1",
        ]
        for site, write in enumerate(writes):
            rows = self.memory(write.memory)
            lines += [
                f"    if a{site} is not None:",
                f"        if not 0 <= a{site} < {self.memories[write.memory].depth}:",
                f"            _oob({write.memory!r}, 'write', a{site})",
                f"        if {rows}[a{site}] != d{site}:",
                f"            {rows}[a{site}] = d{site}",
                "            events += 1",
            ]
        return self.define("edge", lines)

    def loads(self, exprs: List[Expr], driven: set, lazy: bool) -> List[str]:
        """Bind how each signal the expressions use is read; load them.

        Signals in ``driven`` are computed by the function itself.  With
        ``lazy``, a signal read only once stays an inline lookup.
        """
        uses: Dict[str, int] = {}
        for expr in exprs:
            for node in _nodes(expr):
                if isinstance(node, Ref):
                    uses[node.name] = uses.get(node.name, 0) + 1
        self.reads = dict(self.states)
        lines = ["    events = 0"] + [
            f"    {self.memory(name)} = memories[{name!r}]" for name in self.memories
        ]
        for name, count in uses.items():
            if name in self.reads or name in driven:
                continue
            if lazy and count == 1:
                self.reads[name] = f"values[{name!r}]"
            else:
                self.reads[name] = self.local(name)
                lines.append(f"    {self.reads[name]} = values[{name!r}]")
        return lines

    def statements(self, body, pad: str, lines: List[str], writes) -> None:
        for stmt in body:
            if isinstance(stmt, SAssign):
                value = self.masked(stmt.expr, self.widths[stmt.target])
                lines.append(f"{pad}regs[{stmt.target!r}] = {value}")
            elif isinstance(stmt, MemWrite):
                site = len(writes)
                writes.append(stmt)
                data = self.masked(stmt.data, self.memory_widths[stmt.memory])
                lines.append(f"{pad}a{site} = {self.value(stmt.addr)}")
                lines.append(f"{pad}d{site} = {data}")
            else:
                lines.append(f"{pad}if {self.test(stmt.cond)}:")
                self.statements(stmt.then, pad + "    ", lines, writes)
                if not stmt.then:
                    lines.append(f"{pad}    pass")
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    self.statements(stmt.orelse, pad + "    ", lines, writes)

    def define(self, name: str, body: List[str]) -> _NetFn:
        """Compile one function on its own, keeping the peak memory low."""
        lines = [f"def {name}(values, memories):"] + body + ["    return events"]
        code = compile("\n".join(lines), f"<{self.module.name}.{name}>", "exec")
        exec(code, self.namespace)
        return self.namespace.pop(name)

    # -- names ------------------------------------------------------------ #
    def local(self, name: str) -> str:
        if name.isidentifier():
            return f"v_{name}"
        return f"v{list(self.widths).index(name)}"

    def memory(self, name: str) -> str:
        return f"m{list(self.memories).index(name)}"

    def const(self, value: int) -> str:
        if value.bit_length() <= _LITERAL_BITS:
            return str(value)
        if value not in self.constants:
            self.constants[value] = f"K{len(self.constants)}"
            self.namespace[self.constants[value]] = value
        return self.constants[value]

    # -- expressions ------------------------------------------------------ #
    def masked(self, expr: Expr, width: int) -> str:
        """Source for ``expr`` cut to ``width`` bits."""
        bits = self.bits(expr)
        if bits is not None and bits <= width:
            return self.value(expr)
        return f"{self.value(expr)} & {self.const(_mask(width))}"

    def bits(self, expr: Expr) -> Optional[int]:
        """Bit-length bound of the value, or None if it may be negative."""
        if isinstance(expr, Const):
            return expr.value.bit_length()
        if isinstance(expr, (Ref, Slice, MemRead, Cat)):
            return self.width(expr)
        if isinstance(expr, UnOp) or (
            isinstance(expr, BinOp) and expr.op in _COMPARISONS
        ):
            return 1
        if isinstance(expr, Mux):
            left, right = self.bits(expr.if_true), self.bits(expr.if_false)
            return None if left is None or right is None else max(left, right)
        if expr.op == "sub":
            return None
        left, right = self.bits(expr.left), self.bits(expr.right)
        if expr.op == "and" and (left is None or right is None):
            return left if right is None else right
        if left is None or right is None:
            return None
        if expr.op == "add":
            return max(left, right) + 1
        if expr.op == "shl":
            return left + expr.right.value
        if expr.op == "shr":
            return max(left - expr.right.value, 0)
        if expr.op == "and":
            return min(left, right)
        return max(left, right)

    def width(self, expr: Expr) -> int:
        return expr_width(expr, self.widths, self.memory_widths)

    def value(self, expr: Expr) -> str:
        """Python source evaluating to the expression's integer value."""
        if isinstance(expr, Const):
            return self.const(expr.value)
        if isinstance(expr, Ref):
            return self.reads[expr.name]
        if isinstance(expr, Slice):
            value = self.reads[expr.ref.name]
            if expr.lsb:
                value = f"({value} >> {expr.lsb})"
            if expr.msb + 1 < self.widths[expr.ref.name]:
                value = f"({value} & {self.const(_mask(self.width(expr)))})"
            return value
        if isinstance(expr, UnOp):
            return f"(0 if {self.test(expr.operand)} else 1)"
        if isinstance(expr, BinOp):
            if expr.op in _COMPARISONS:
                return f"(1 if {self.test(expr)} else 0)"
            left, right = self.value(expr.left), self.value(expr.right)
            return f"({left} {_OPERATORS[expr.op]} {right})"
        if isinstance(expr, Mux):
            return (
                f"({self.value(expr.if_true)} if {self.test(expr.cond)} "
                f"else {self.value(expr.if_false)})"
            )
        if isinstance(expr, Cat):
            terms, shift = [], 0
            for part in reversed(expr.parts):
                term = f"({self.masked(part, self.width(part))})"
                terms.append(f"({term} << {shift})" if shift else term)
                shift += self.width(part)
            return "(" + " | ".join(reversed(terms)) + ")"
        if isinstance(expr, MemRead):
            rows, depth = self.memory(expr.memory), self.memories[expr.memory].depth
            if isinstance(expr.addr, Const) and expr.addr.value < depth:
                return f"{rows}[{expr.addr.value}]"
            index = bound = self.value(expr.addr)
            if not isinstance(expr.addr, Ref):
                index = f"t{self.temps}"
                bound = f"({index} := {bound})"
                self.temps += 1
            return (
                f"({rows}[{index}] if 0 <= {bound} < {depth} "
                f"else _oob({expr.memory!r}, 'read', {index}))"
            )
        raise HdlError(f"not an expression: {expr!r}")

    def test(self, expr: Expr) -> str:
        """Python source whose truth is that of the expression's value."""
        if isinstance(expr, UnOp):
            return f"(not {self.test(expr.operand)})"
        if isinstance(expr, BinOp) and expr.op in _COMPARISONS:
            left, right = self.value(expr.left), self.value(expr.right)
            return f"({left} {_OPERATORS[expr.op]} {right})"
        return self.value(expr)


class EventSimulator:
    """Discrete-event simulator for one (flattened) IR module.

    The public surface is testbench-shaped: :meth:`poke` inputs,
    :meth:`peek` any signal, :meth:`step` to advance whole clock cycles.
    ``events`` counts every signal-value change (combinational settling
    plus register and memory commits) — the quantity
    ``benchmarks/bench_hdl.py`` reports as events per second.

    Construction compiles the netlist to two generated Python functions:
    one settles the combinational network in a single pass over the
    topologically sorted assigns, the other applies a clock edge.
    ``values`` and ``memories`` hold the live state.  Drive inputs through
    :meth:`poke` or :meth:`at`: :meth:`step` settles before the edge only
    after a poke.
    """

    def __init__(self, module: Module) -> None:
        module.validate()
        flat = module.flatten()
        self.module = flat
        self._widths = flat.signal_widths()
        self.values: Dict[str, int] = {name: 0 for name in self._widths}
        for state in flat.fsm_states:
            self.values[state.name] = state.value
        for reg in flat.regs:
            self.values[reg.name] = reg.reset
        self.memories: Dict[str, List[int]] = {
            memory.name: [0] * memory.depth for memory in flat.memories
        }
        self._input_ports = {
            port.name for port in flat.ports if port.direction == "in"
        }
        self.cycle = 0
        self.events = 0
        codegen = _Codegen(flat)
        self._settle = codegen.settle(_topological(flat.assigns))
        self._edge = codegen.edge()
        self.settle()

    # ------------------------------------------------------------------ #
    # testbench surface
    # ------------------------------------------------------------------ #
    def poke(self, name: str, value: int) -> None:
        """Drive an input port (takes effect at the next :meth:`settle`)."""
        if name not in self._input_ports:
            raise HdlError(f"{name!r} is not an input port")
        self.values[name] = value & _mask(self._widths[name])
        self._poked = True

    def peek(self, name: str) -> int:
        """Read the settled value of any signal."""
        try:
            return self.values[name]
        except KeyError:
            raise HdlError(f"unknown signal {name!r}") from None

    def settle(self) -> None:
        """Settle the combinational network in one pass.

        Every assign is evaluated once, in topological order, so each reads
        only values already final for this settle; memory rows change only
        at edges, and construction rejects combinational loops.  One pass
        is therefore the fixpoint.
        """
        self.events += self._settle(self.values, self.memories)
        self._poked = False

    def step(self, cycles: int = 1) -> None:
        """Advance whole clock cycles (settle → edge → settle).

        The settle before the edge is skipped when nothing was poked since
        the last one, which already left the network settled.
        """
        for _ in range(cycles):
            if self._poked:
                self.settle()
            self.events += self._edge(self.values, self.memories)
            self.cycle += 1
            self.settle()


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

    Same ``multiply`` surface as the other tiers, but the product comes
    out of the simulated datapath and the
    :class:`~repro.modsram.report.CycleReport` fields are *measured* by
    counting controller states — nothing is taken from the closed-form
    algebra, which is exactly what makes the field-by-field comparison
    against :class:`~repro.modsram.analytical.AnalyticalCostModel` a real
    cross-check.
    """

    tier = "hdl"

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
