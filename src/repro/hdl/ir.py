"""Structural hardware IR for the ModSRAM macro.

A deliberately small register-transfer IR: enough to describe the macro's
controller FSM, near-memory datapath and SRAM row storage so that one
description can be *both* emitted as synthesizable Verilog-2001
(:mod:`repro.hdl.verilog`) and executed by the event-driven simulator
(:mod:`repro.hdl.eventsim`).  Everything is a frozen dataclass with explicit
bit-widths; there is no inference magic beyond :func:`expr_width`.

Design rules (enforced by :meth:`Module.validate` and kept simple on
purpose so the Verilog emission is trivially faithful):

* every wire is driven by exactly one continuous assignment, every reg by
  exactly one clocked process, every memory by exactly one process;
* :class:`Slice` applies only to named signals (Verilog-2001 cannot part-
  select an expression), so elaboration materialises intermediates as
  named wires — which keeps expression widths explicit on both sides;
* assignment masks the right-hand side to the target's width, matching
  Verilog's context-determined sizing for the single-operation right-hand
  sides elaboration produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

from repro.errors import ReproError

__all__ = [
    "HdlError",
    "Port",
    "Reg",
    "Wire",
    "Memory",
    "FsmState",
    "Const",
    "Ref",
    "UnOp",
    "BinOp",
    "Mux",
    "Slice",
    "Cat",
    "MemRead",
    "Assign",
    "SAssign",
    "MemWrite",
    "SIf",
    "Process",
    "Instance",
    "Module",
    "expr_width",
]


class HdlError(ReproError):
    """A malformed IR construct (bad width, duplicate driver, bad ref)."""


# --------------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Port:
    """A module port with direction ``"in"`` or ``"out"`` and a bit-width."""

    name: str
    width: int
    direction: str = "in"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise HdlError(f"port {self.name}: direction must be in/out")
        if self.width <= 0:
            raise HdlError(f"port {self.name}: width must be positive")


@dataclass(frozen=True)
class Reg:
    """A clocked register (posedge-updated, masked to ``width`` bits)."""

    name: str
    width: int
    reset: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise HdlError(f"reg {self.name}: width must be positive")
        if not 0 <= self.reset < (1 << self.width):
            raise HdlError(f"reg {self.name}: reset value does not fit")


@dataclass(frozen=True)
class Wire:
    """A combinationally-driven signal (one continuous assignment)."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise HdlError(f"wire {self.name}: width must be positive")


@dataclass(frozen=True)
class Memory:
    """A word-addressed register array (the SRAM rows of the macro)."""

    name: str
    width: int
    depth: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.depth <= 0:
            raise HdlError(f"memory {self.name}: width/depth must be positive")


@dataclass(frozen=True)
class FsmState:
    """A named FSM state constant (emitted as a Verilog ``localparam``)."""

    name: str
    value: int
    width: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << self.width):
            raise HdlError(f"state {self.name}: value does not fit in width")


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Const:
    """A sized literal value."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise HdlError("const width must be positive")
        if not 0 <= self.value < (1 << self.width):
            raise HdlError(f"const {self.value} does not fit in {self.width} bits")


@dataclass(frozen=True)
class Ref:
    """A reference to a named signal (port, reg, wire or FSM state)."""

    name: str


@dataclass(frozen=True)
class UnOp:
    """A unary operation; only logical ``"not"`` (1-bit result)."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    """A binary operation.

    Arithmetic/bitwise: ``add sub and or xor shl shr``; comparisons
    (1-bit results): ``eq ne lt le gt ge``.  Shift amounts must be
    :class:`Const` so widths stay static.
    """

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mux:
    """A 2:1 multiplexer: ``cond ? if_true : if_false``."""

    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(frozen=True)
class Slice:
    """A bit-slice ``signal[msb:lsb]`` of a *named* signal."""

    ref: Ref
    msb: int
    lsb: int

    def __post_init__(self) -> None:
        if self.lsb < 0 or self.msb < self.lsb:
            raise HdlError(f"bad slice [{self.msb}:{self.lsb}] of {self.ref.name}")


@dataclass(frozen=True)
class Cat:
    """Concatenation ``{parts...}``, most-significant part first."""

    parts: Tuple["Expr", ...]


@dataclass(frozen=True)
class MemRead:
    """An asynchronous memory-row read ``memory[addr]``."""

    memory: str
    addr: "Expr"


Expr = Union[Const, Ref, UnOp, BinOp, Mux, Slice, Cat, MemRead]

_CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
_ARITH_OPS = ("add", "sub", "and", "or", "xor", "shl", "shr")


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Assign:
    """A continuous assignment driving a wire (``assign target = expr``)."""

    target: str
    expr: Expr


@dataclass(frozen=True)
class SAssign:
    """A nonblocking register assignment inside a process (``r <= expr``)."""

    target: str
    expr: Expr


@dataclass(frozen=True)
class MemWrite:
    """A nonblocking memory-row write inside a process."""

    memory: str
    addr: Expr
    data: Expr


@dataclass(frozen=True)
class SIf:
    """A conditional inside a process, with optional else branch."""

    cond: Expr
    then: Tuple["Stmt", ...]
    orelse: Tuple["Stmt", ...] = ()


Stmt = Union[SAssign, MemWrite, SIf]


@dataclass(frozen=True)
class Process:
    """A clocked process (``always @(posedge clk)``) of sequential statements."""

    name: str
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Instance:
    """A child-module instantiation.

    ``bindings`` maps every child port name to a parent signal name; input
    ports read the parent signal, output ports drive it (the parent signal
    must be a wire with no other driver).
    """

    module: "Module"
    name: str
    bindings: Mapping[str, str]


# --------------------------------------------------------------------------- #
# module
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Module:
    """One hardware module: declarations, continuous assigns, processes.

    The implicit clock is the 1-bit input port ``clk``; every
    :class:`Process` is clocked by it.  Ordering of ``assigns`` is the
    emission order (and the initial evaluation order hint for the
    simulator, which re-sorts topologically).
    """

    name: str
    ports: Tuple[Port, ...] = ()
    regs: Tuple[Reg, ...] = ()
    wires: Tuple[Wire, ...] = ()
    memories: Tuple[Memory, ...] = ()
    fsm_states: Tuple[FsmState, ...] = ()
    assigns: Tuple[Assign, ...] = ()
    processes: Tuple[Process, ...] = ()
    instances: Tuple[Instance, ...] = ()

    # -- symbol tables --------------------------------------------------- #
    def signal_widths(self) -> Dict[str, int]:
        """Width of every named signal (ports, regs, wires, FSM states)."""
        widths: Dict[str, int] = {}
        for port in self.ports:
            widths[port.name] = port.width
        for reg in self.regs:
            widths[reg.name] = reg.width
        for wire in self.wires:
            widths[wire.name] = wire.width
        for state in self.fsm_states:
            widths[state.name] = state.width
        return widths

    def memory_table(self) -> Dict[str, Memory]:
        """Name → :class:`Memory` declaration table."""
        return {memory.name: memory for memory in self.memories}

    # -- validation ------------------------------------------------------ #
    def validate(self) -> None:
        """Check naming, driver-uniqueness and reference rules.

        Raises :class:`HdlError` on the first violation.  Called by the
        emitter and the simulator so a malformed elaboration cannot produce
        silently-wrong Verilog or simulation results.
        """
        names: List[str] = (
            [p.name for p in self.ports]
            + [r.name for r in self.regs]
            + [w.name for w in self.wires]
            + [m.name for m in self.memories]
            + [s.name for s in self.fsm_states]
        )
        seen = set()
        for name in names:
            if name in seen:
                raise HdlError(f"{self.name}: duplicate signal name {name!r}")
            seen.add(name)

        widths = self.signal_widths()
        memories = self.memory_table()
        state_names = {s.name for s in self.fsm_states}
        reg_names = {r.name for r in self.regs}
        wire_names = {w.name for w in self.wires}
        out_ports = {p.name for p in self.ports if p.direction == "out"}

        def check_expr(expr: Expr, where: str) -> None:
            if isinstance(expr, Const):
                return
            if isinstance(expr, Ref):
                if expr.name not in widths:
                    raise HdlError(
                        f"{self.name}.{where}: unknown signal {expr.name!r}"
                    )
                return
            if isinstance(expr, UnOp):
                if expr.op != "not":
                    raise HdlError(f"{self.name}.{where}: bad unop {expr.op!r}")
                check_expr(expr.operand, where)
                return
            if isinstance(expr, BinOp):
                if expr.op not in _CMP_OPS + _ARITH_OPS:
                    raise HdlError(f"{self.name}.{where}: bad op {expr.op!r}")
                if expr.op in ("shl", "shr") and not isinstance(expr.right, Const):
                    raise HdlError(
                        f"{self.name}.{where}: shift amounts must be constants"
                    )
                check_expr(expr.left, where)
                check_expr(expr.right, where)
                return
            if isinstance(expr, Mux):
                check_expr(expr.cond, where)
                check_expr(expr.if_true, where)
                check_expr(expr.if_false, where)
                return
            if isinstance(expr, Slice):
                check_expr(expr.ref, where)
                if expr.msb >= widths[expr.ref.name]:
                    raise HdlError(
                        f"{self.name}.{where}: slice [{expr.msb}:{expr.lsb}] "
                        f"exceeds {expr.ref.name!r} "
                        f"({widths[expr.ref.name]} bits)"
                    )
                return
            if isinstance(expr, Cat):
                if not expr.parts:
                    raise HdlError(f"{self.name}.{where}: empty concatenation")
                for part in expr.parts:
                    check_expr(part, where)
                return
            if isinstance(expr, MemRead):
                if expr.memory not in memories:
                    raise HdlError(
                        f"{self.name}.{where}: unknown memory {expr.memory!r}"
                    )
                check_expr(expr.addr, where)
                return
            raise HdlError(f"{self.name}.{where}: not an expression: {expr!r}")

        # continuous assigns: targets are wires or output ports, driven once
        comb_driven = set()
        for assign in self.assigns:
            if assign.target not in wire_names and assign.target not in out_ports:
                raise HdlError(
                    f"{self.name}: assign target {assign.target!r} is not a "
                    "wire or output port"
                )
            if assign.target in comb_driven:
                raise HdlError(
                    f"{self.name}: wire {assign.target!r} driven more than once"
                )
            comb_driven.add(assign.target)
            check_expr(assign.expr, f"assign {assign.target}")

        # processes: SAssign targets are regs; memories written in one process
        mem_writer: Dict[str, str] = {}
        reg_writer: Dict[str, str] = {}

        def check_stmt(stmt: Stmt, process: str) -> None:
            if isinstance(stmt, SAssign):
                if stmt.target not in reg_names:
                    raise HdlError(
                        f"{self.name}.{process}: sequential target "
                        f"{stmt.target!r} is not a reg"
                    )
                owner = reg_writer.setdefault(stmt.target, process)
                if owner != process:
                    raise HdlError(
                        f"{self.name}: reg {stmt.target!r} written from both "
                        f"{owner!r} and {process!r}"
                    )
                check_expr(stmt.expr, process)
                return
            if isinstance(stmt, MemWrite):
                if stmt.memory not in memories:
                    raise HdlError(
                        f"{self.name}.{process}: unknown memory {stmt.memory!r}"
                    )
                owner = mem_writer.setdefault(stmt.memory, process)
                if owner != process:
                    raise HdlError(
                        f"{self.name}: memory {stmt.memory!r} written from "
                        f"both {owner!r} and {process!r}"
                    )
                check_expr(stmt.addr, process)
                check_expr(stmt.data, process)
                return
            if isinstance(stmt, SIf):
                check_expr(stmt.cond, process)
                for sub in stmt.then:
                    check_stmt(sub, process)
                for sub in stmt.orelse:
                    check_stmt(sub, process)
                return
            raise HdlError(f"{self.name}.{process}: not a statement: {stmt!r}")

        for process in self.processes:
            for stmt in process.body:
                check_stmt(stmt, process.name)

        # state names must not shadow driven signals
        for name in state_names:
            if name in comb_driven or name in reg_names:
                raise HdlError(f"{self.name}: FSM state {name!r} shadows a signal")

        # instances: bindings cover every child port and target known signals
        for instance in self.instances:
            child_ports = {p.name: p for p in instance.module.ports}
            for port_name in child_ports:
                if port_name not in instance.bindings:
                    raise HdlError(
                        f"{self.name}.{instance.name}: port {port_name!r} "
                        "is unbound"
                    )
            for port_name, signal in instance.bindings.items():
                if port_name not in child_ports:
                    raise HdlError(
                        f"{self.name}.{instance.name}: no child port "
                        f"{port_name!r}"
                    )
                if signal not in widths:
                    raise HdlError(
                        f"{self.name}.{instance.name}: binding target "
                        f"{signal!r} is not a parent signal"
                    )
                if widths[signal] != child_ports[port_name].width:
                    raise HdlError(
                        f"{self.name}.{instance.name}.{port_name}: width "
                        f"{child_ports[port_name].width} bound to "
                        f"{signal!r} of width {widths[signal]}"
                    )

    # -- hierarchy flattening ------------------------------------------- #
    def flatten(self) -> "Module":
        """Inline every instance into one flat module for simulation.

        Child signals are renamed ``u_<instance>__<name>``; child ports
        become wires, with input ports assigned from the bound parent
        signal and output-port bindings assigned from the child's wire.
        The top-level ports are preserved.
        """
        if not self.instances:
            return self
        regs = list(self.regs)
        wires = list(self.wires)
        memories = list(self.memories)
        fsm_states = list(self.fsm_states)
        assigns = list(self.assigns)
        processes = list(self.processes)

        for instance in self.instances:
            child = instance.module.flatten()
            prefix = f"u_{instance.name}__"

            def rn(name: str, prefix: str = prefix) -> str:
                return prefix + name

            child_state_names = {s.name for s in child.fsm_states}

            def rex(expr: Expr, prefix: str = prefix) -> Expr:
                if isinstance(expr, Const):
                    return expr
                if isinstance(expr, Ref):
                    return Ref(prefix + expr.name)
                if isinstance(expr, UnOp):
                    return UnOp(expr.op, rex(expr.operand))
                if isinstance(expr, BinOp):
                    return BinOp(expr.op, rex(expr.left), rex(expr.right))
                if isinstance(expr, Mux):
                    return Mux(rex(expr.cond), rex(expr.if_true), rex(expr.if_false))
                if isinstance(expr, Slice):
                    return Slice(Ref(prefix + expr.ref.name), expr.msb, expr.lsb)
                if isinstance(expr, Cat):
                    return Cat(tuple(rex(part) for part in expr.parts))
                if isinstance(expr, MemRead):
                    return MemRead(prefix + expr.memory, rex(expr.addr))
                raise HdlError(f"cannot rename expression {expr!r}")

            def rst(stmt: Stmt) -> Stmt:
                if isinstance(stmt, SAssign):
                    return SAssign(rn(stmt.target), rex(stmt.expr))
                if isinstance(stmt, MemWrite):
                    return MemWrite(rn(stmt.memory), rex(stmt.addr), rex(stmt.data))
                if isinstance(stmt, SIf):
                    return SIf(
                        rex(stmt.cond),
                        tuple(rst(s) for s in stmt.then),
                        tuple(rst(s) for s in stmt.orelse),
                    )
                raise HdlError(f"cannot rename statement {stmt!r}")

            for reg in child.regs:
                regs.append(Reg(rn(reg.name), reg.width, reg.reset))
            for memory in child.memories:
                memories.append(Memory(rn(memory.name), memory.width, memory.depth))
            for state in child.fsm_states:
                fsm_states.append(FsmState(rn(state.name), state.value, state.width))
            for wire in child.wires:
                wires.append(Wire(rn(wire.name), wire.width))
            for port in child.ports:
                wires.append(Wire(rn(port.name), port.width))
                bound = instance.bindings[port.name]
                if port.direction == "in":
                    assigns.append(Assign(rn(port.name), Ref(bound)))
                else:
                    assigns.append(Assign(bound, Ref(rn(port.name))))
            for assign in child.assigns:
                assigns.append(Assign(rn(assign.target), rex(assign.expr)))
            for process in child.processes:
                processes.append(
                    Process(rn(process.name), tuple(rst(s) for s in process.body))
                )
            # FSM-state refs inside the child were renamed too; the renamed
            # localparams added above keep them resolvable.
            del child_state_names

        flat = Module(
            name=self.name,
            ports=self.ports,
            regs=tuple(regs),
            wires=tuple(wires),
            memories=tuple(memories),
            fsm_states=tuple(fsm_states),
            assigns=tuple(assigns),
            processes=tuple(processes),
            instances=(),
        )
        flat.validate()
        return flat


def expr_width(expr: Expr, widths: Mapping[str, int], mem_widths: Mapping[str, int]) -> int:
    """Natural (loss-free) bit-width of an expression.

    Used by the emitter for literal sizing and by :meth:`Module.validate`
    callers that want width sanity checks; assignment always masks to the
    declared target width regardless.
    """
    if isinstance(expr, Const):
        return expr.width
    if isinstance(expr, Ref):
        return widths[expr.name]
    if isinstance(expr, UnOp):
        return 1
    if isinstance(expr, BinOp):
        if expr.op in _CMP_OPS:
            return 1
        left = expr_width(expr.left, widths, mem_widths)
        right = expr_width(expr.right, widths, mem_widths)
        if expr.op == "add":
            return max(left, right) + 1
        if expr.op == "shl":
            assert isinstance(expr.right, Const)
            return left + expr.right.value
        if expr.op == "shr":
            return left
        return max(left, right)
    if isinstance(expr, Mux):
        return max(
            expr_width(expr.if_true, widths, mem_widths),
            expr_width(expr.if_false, widths, mem_widths),
        )
    if isinstance(expr, Slice):
        return expr.msb - expr.lsb + 1
    if isinstance(expr, Cat):
        return sum(expr_width(part, widths, mem_widths) for part in expr.parts)
    if isinstance(expr, MemRead):
        return mem_widths[expr.memory]
    raise HdlError(f"not an expression: {expr!r}")
