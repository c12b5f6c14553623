"""Deterministic synthesizable Verilog-2001 emission from the IR.

One file per module, declarations first, continuous assigns next, clocked
processes last — in IR order, with no timestamps or environment-dependent
content, so emission is byte-stable and golden-file testable.

Width discipline: elaboration produces three-address right-hand sides (one
operation per named wire), so Verilog's context-determined sizing — every
operand extended to the assignment width, results truncated to the target —
coincides with the simulator's mask-at-assignment semantics.  Comparisons
and slices apply only to named signals, where both interpretations agree by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hdl.elaborate import MacroDesign
from repro.hdl.ir import (
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

__all__ = ["emit_module", "emit_design"]

_BINOPS = {
    "add": "+",
    "sub": "-",
    "and": "&",
    "or": "|",
    "xor": "^",
    "shl": "<<",
    "shr": ">>",
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}

_INDENT = "  "


def _literal(value: int, width: int) -> str:
    if width > 32 or value >= (1 << 31):
        return f"{width}'h{value:x}"
    return f"{width}'d{value}"


def _emit_expr(expr: Expr) -> str:
    """Render one expression, fully parenthesised (precedence-free)."""
    if isinstance(expr, Const):
        return _literal(expr.value, expr.width)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, UnOp):
        return f"(!{_emit_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        try:
            token = _BINOPS[expr.op]
        except KeyError:
            raise HdlError(f"cannot emit binary op {expr.op!r}") from None
        return f"({_emit_expr(expr.left)} {token} {_emit_expr(expr.right)})"
    if isinstance(expr, Mux):
        return (
            f"({_emit_expr(expr.cond)} ? {_emit_expr(expr.if_true)}"
            f" : {_emit_expr(expr.if_false)})"
        )
    if isinstance(expr, Slice):
        if expr.msb == expr.lsb:
            return f"{expr.ref.name}[{expr.msb}]"
        return f"{expr.ref.name}[{expr.msb}:{expr.lsb}]"
    if isinstance(expr, Cat):
        return "{" + ", ".join(_emit_expr(part) for part in expr.parts) + "}"
    if isinstance(expr, MemRead):
        return f"{expr.memory}[{_emit_expr(expr.addr)}]"
    raise HdlError(f"cannot emit expression {expr!r}")


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def _emit_stmt(stmt: Stmt, lines: List[str], depth: int) -> None:
    pad = _INDENT * depth
    if isinstance(stmt, SAssign):
        lines.append(f"{pad}{stmt.target} <= {_emit_expr(stmt.expr)};")
        return
    if isinstance(stmt, MemWrite):
        lines.append(
            f"{pad}{stmt.memory}[{_emit_expr(stmt.addr)}] <= "
            f"{_emit_expr(stmt.data)};"
        )
        return
    if isinstance(stmt, SIf):
        lines.append(f"{pad}if ({_emit_expr(stmt.cond)}) begin")
        for sub in stmt.then:
            _emit_stmt(sub, lines, depth + 1)
        if stmt.orelse:
            lines.append(f"{pad}end else begin")
            for sub in stmt.orelse:
                _emit_stmt(sub, lines, depth + 1)
        lines.append(f"{pad}end")
        return
    raise HdlError(f"cannot emit statement {stmt!r}")


def emit_module(module: Module, banner: Sequence[str] = ()) -> str:
    """Emit one module as Verilog-2001 text (validated first)."""
    module.validate()
    lines: List[str] = ["// Generated by repro.hdl.verilog -- do not edit."]
    for comment in banner:
        lines.append(f"// {comment}")
    lines.append("")

    # ANSI-style header (legal Verilog-2001)
    lines.append(f"module {module.name} (")
    # sequential targets are regs by construction (validate), so every
    # output port is continuously driven and declared as a wire
    port_decls = []
    for port in module.ports:
        kind = "input wire" if port.direction == "in" else "output wire"
        port_decls.append(f"{_INDENT}{kind} {_range(port.width)}{port.name}")
    lines.append(",\n".join(port_decls))
    lines.append(");")
    lines.append("")

    for state in module.fsm_states:
        lines.append(
            f"{_INDENT}localparam {_range(state.width)}{state.name} = "
            f"{_literal(state.value, state.width)};"
        )
    if module.fsm_states:
        lines.append("")
    for reg in module.regs:
        lines.append(f"{_INDENT}reg {_range(reg.width)}{reg.name};")
    for memory in module.memories:
        lines.append(
            f"{_INDENT}reg {_range(memory.width)}{memory.name} "
            f"[0:{memory.depth - 1}];"
        )
    for wire in module.wires:
        lines.append(f"{_INDENT}wire {_range(wire.width)}{wire.name};")
    if module.regs or module.memories or module.wires:
        lines.append("")

    for assign in module.assigns:
        lines.append(
            f"{_INDENT}assign {assign.target} = {_emit_expr(assign.expr)};"
        )
    if module.assigns:
        lines.append("")

    for instance in module.instances:
        lines.append(f"{_INDENT}{instance.module.name} {instance.name} (")
        bind_lines = [
            f"{_INDENT * 2}.{port.name}({instance.bindings[port.name]})"
            for port in instance.module.ports
        ]
        lines.append(",\n".join(bind_lines))
        lines.append(f"{_INDENT});")
        lines.append("")

    for process in module.processes:
        lines.append(f"{_INDENT}always @(posedge clk) begin : {process.name}")
        for stmt in process.body:
            _emit_stmt(stmt, lines, 2)
        lines.append(f"{_INDENT}end")
        lines.append("")

    lines.append(f"endmodule // {module.name}")
    lines.append("")
    return "\n".join(lines)


def emit_design(design: MacroDesign) -> Dict[str, str]:
    """Emit every module of a macro design as ``{file name: text}``.

    The banner records the geometry the design was elaborated for, so a
    golden-file diff immediately shows which design point drifted.
    """
    config = design.config
    banner = (
        f"ModSRAM macro: bitwidth={config.bitwidth} rows={config.rows} "
        f"columns={config.columns} iterations={config.iterations} "
        f"extend_for_full_range={config.extend_for_full_range}",
    )
    return {
        f"{module.name}.v": emit_module(module, banner)
        for module in design.modules
    }
