"""Event-driven simulator: settling, register semantics, the wheel, errors."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hdl.eventsim import EventSimulator, HdlModSRAM
from repro.hdl.ir import (
    Assign,
    BinOp,
    Cat,
    Const,
    HdlError,
    Memory,
    MemRead,
    MemWrite,
    Module,
    Mux,
    Port,
    Process,
    Reg,
    Ref,
    SAssign,
    SIf,
    Slice,
    UnOp,
    Wire,
    expr_width,
)
from repro.modsram.config import ModSRAMConfig, PAPER_CONFIG


def _counter() -> Module:
    """A 4-bit counter with enable and synchronous clear."""
    return Module(
        name="counter",
        ports=(
            Port("clk", 1, "in"),
            Port("enable", 1, "in"),
            Port("clear", 1, "in"),
            Port("count", 4, "out"),
        ),
        regs=(Reg("value", 4),),
        wires=(Wire("next_value", 4),),
        assigns=(
            Assign("next_value", BinOp("add", Ref("value"), Const(1, 1))),
            Assign("count", Ref("value")),
        ),
        processes=(
            Process(
                "seq",
                (
                    SIf(
                        Ref("clear"),
                        (SAssign("value", Const(0, 4)),),
                        (
                            SIf(
                                Ref("enable"),
                                (SAssign("value", Ref("next_value")),),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )


class TestRegisterSemantics:
    def test_counter_counts_only_when_enabled(self):
        sim = EventSimulator(_counter())
        assert sim.peek("count") == 0
        sim.step(3)
        assert sim.peek("count") == 0  # enable low
        sim.poke("enable", 1)
        sim.step(5)
        assert sim.peek("count") == 5
        sim.poke("enable", 0)
        sim.step(2)
        assert sim.peek("count") == 5

    def test_counter_wraps_at_width(self):
        sim = EventSimulator(_counter())
        sim.poke("enable", 1)
        sim.step(18)
        assert sim.peek("count") == 2  # 18 mod 16

    def test_synchronous_clear_wins(self):
        sim = EventSimulator(_counter())
        sim.poke("enable", 1)
        sim.step(7)
        sim.poke("clear", 1)
        sim.step()
        assert sim.peek("count") == 0

    def test_process_reads_pre_edge_values(self):
        # One step after enabling: the process saw the old count.
        sim = EventSimulator(_counter())
        sim.poke("enable", 1)
        before = sim.peek("next_value")
        sim.step()
        assert sim.peek("count") == before


class TestCombinationalSettling:
    def test_chained_assigns_settle_out_of_order(self):
        # Declared deliberately in reverse dependency order: the
        # simulator must topologically sort, not trust declaration order.
        module = Module(
            name="chain",
            ports=(Port("clk", 1, "in"), Port("x", 4, "in"), Port("y", 6, "out")),
            wires=(Wire("c", 6), Wire("b", 5), Wire("a", 4)),
            assigns=(
                Assign("y", Ref("c")),
                Assign("c", BinOp("add", Ref("b"), Const(1, 1))),
                Assign("b", BinOp("add", Ref("a"), Const(1, 1))),
                Assign("a", Ref("x")),
            ),
        )
        sim = EventSimulator(module)
        sim.poke("x", 5)
        sim.settle()
        assert sim.peek("y") == 7

    def test_combinational_loop_is_rejected(self):
        module = Module(
            name="loop",
            ports=(Port("clk", 1, "in"), Port("y", 1, "out")),
            wires=(Wire("a", 1), Wire("b", 1)),
            assigns=(
                Assign("a", Ref("b")),
                Assign("b", Ref("a")),
                Assign("y", Ref("a")),
            ),
        )
        with pytest.raises(HdlError, match="combinational loop"):
            EventSimulator(module)

    def test_mux_and_slice(self):
        module = Module(
            name="muxes",
            ports=(
                Port("clk", 1, "in"),
                Port("sel", 1, "in"),
                Port("x", 8, "in"),
                Port("y", 4, "out"),
            ),
            wires=(Wire("hi", 4), Wire("lo", 4)),
            assigns=(
                Assign("hi", Slice(Ref("x"), 7, 4)),
                Assign("lo", Slice(Ref("x"), 3, 0)),
                Assign("y", Mux(Ref("sel"), Ref("hi"), Ref("lo"))),
            ),
        )
        sim = EventSimulator(module)
        sim.poke("x", 0xA5)
        sim.settle()
        assert sim.peek("y") == 0x5
        sim.poke("sel", 1)
        sim.settle()
        assert sim.peek("y") == 0xA

    def test_events_counter_advances(self):
        sim = EventSimulator(_counter())
        before = sim.events
        sim.poke("enable", 1)
        sim.step(3)
        assert sim.events > before


class TestMemory:
    def test_memwrite_and_memread(self):
        module = Module(
            name="memtest",
            ports=(
                Port("clk", 1, "in"),
                Port("wen", 1, "in"),
                Port("addr", 2, "in"),
                Port("data", 8, "in"),
                Port("out", 8, "out"),
            ),
            memories=(Memory("mem", 8, 4),),
            assigns=(Assign("out", MemRead("mem", Ref("addr"))),),
            processes=(
                Process(
                    "seq",
                    (SIf(Ref("wen"), (MemWrite("mem", Ref("addr"), Ref("data")),)),),
                ),
            ),
        )
        sim = EventSimulator(module)
        sim.poke("wen", 1)
        sim.poke("addr", 2)
        sim.poke("data", 0x7E)
        sim.step()
        sim.poke("wen", 0)
        sim.settle()
        assert sim.peek("out") == 0x7E
        assert sim.memories["mem"][2] == 0x7E
        assert sim.memories["mem"][1] == 0


def _memory_port(read_addr, write_addr) -> Module:
    """A 3-row memory with one read and one enabled write port."""
    return Module(
        name="memport",
        ports=(
            Port("clk", 1, "in"),
            Port("wen", 1, "in"),
            Port("raddr", 2, "in"),
            Port("waddr", 2, "in"),
            Port("out", 8, "out"),
        ),
        memories=(Memory("mem", 8, 3),),
        assigns=(Assign("out", MemRead("mem", read_addr)),),
        processes=(
            Process(
                "seq",
                (SIf(Ref("wen"), (MemWrite("mem", write_addr, Const(0x5A, 8)),)),),
            ),
        ),
    )


def _negative(name: str) -> BinOp:
    return BinOp("sub", Const(2, 2), Ref(name))


#: Address expressions of one port signal that, with the signal at 3, reach
#: past the last row, or below row 0 through a ``sub`` (index -1, which a
#: Python list would silently wrap to the last row).
_BAD_ADDRESSES = [
    pytest.param(Ref, id="past-the-end"),
    pytest.param(_negative, id="negative"),
]


class TestErrors:
    @pytest.mark.parametrize("address", _BAD_ADDRESSES)
    def test_memory_read_out_of_range(self, address):
        sim = EventSimulator(_memory_port(address("raddr"), Const(0, 2)))
        sim.poke("raddr", 3)
        with pytest.raises(HdlError, match="read out of range"):
            sim.settle()

    @pytest.mark.parametrize("address", _BAD_ADDRESSES)
    def test_memory_write_out_of_range(self, address):
        sim = EventSimulator(_memory_port(Const(0, 2), address("waddr")))
        sim.poke("wen", 1)
        sim.poke("waddr", 3)
        with pytest.raises(HdlError, match="write out of range"):
            sim.step()
        assert sim.memories["mem"] == [0, 0, 0]

    def test_poke_of_a_non_input_is_rejected(self):
        sim = EventSimulator(_counter())
        with pytest.raises(HdlError, match="not an input port"):
            sim.poke("count", 3)

    def test_peek_of_an_unknown_signal_is_rejected(self):
        sim = EventSimulator(_counter())
        with pytest.raises(HdlError, match="unknown signal"):
            sim.peek("nope")


@pytest.mark.parametrize(
    "config",
    [ModSRAMConfig().with_bitwidth(16), PAPER_CONFIG],
    ids=["16-bit", "paper"],
)
def test_one_settle_reaches_the_fixpoint(config):
    """After every clock edge of a multiply, settling again changes nothing."""
    tier = HdlModSRAM(config)
    sim = tier.macro.sim
    step = sim.step
    resettled = []

    def step_then_resettle(cycles: int = 1) -> None:
        step(cycles)
        values, events = dict(sim.values), sim.events
        sim.settle()
        resettled.append((sim.events - events, sim.values == values))

    sim.step = step_then_resettle
    modulus = (1 << (config.bitwidth - 1)) + 0x2B
    result = tier.multiply(modulus // 3, modulus - 2, modulus)
    assert result.product == (modulus // 3) * (modulus - 2) % modulus
    assert len(resettled) == sim.cycle
    assert set(resettled) == {(0, True)}


# --------------------------------------------------------------------------- #
# the generated source against the IR's semantics, on random expressions
# --------------------------------------------------------------------------- #
_INPUT_WIDTHS = {"x": 8, "y": 5, "s": 1}
_OUTPUT_WIDTHS = {"o1": 1, "o4": 4, "o12": 12}
_ARITHMETIC = ("add", "sub", "and", "or", "xor")
_COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")
_PYTHON_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
}


def _row(addr):
    """An address that is always in range of the 4-row memory."""
    return BinOp("and", addr, Const(3, 2))


_leaves = st.one_of(
    st.integers(1, 9).flatmap(
        lambda width: st.integers(0, (1 << width) - 1).map(
            lambda value: Const(value, width)
        )
    ),
    st.sampled_from([Ref(name) for name in _INPUT_WIDTHS]),
    st.integers(0, 7).flatmap(
        lambda msb: st.integers(0, msb).map(lambda lsb: Slice(Ref("x"), msb, lsb))
    ),
)


@st.composite
def _exprs(draw, depth: int = 3):
    """A random expression tree, not a bare leaf, weighted to arithmetic."""
    kinds = ("binop", "binop", "binop", "shift", "not", "mux", "cat", "read")
    if depth < 3:
        kinds += ("leaf", "leaf")
    kind = draw(st.sampled_from(kinds))
    if depth == 0 or kind == "leaf":
        return draw(_leaves)
    child = _exprs(depth - 1)
    if kind == "binop":
        op = draw(st.sampled_from(_ARITHMETIC + _COMPARISONS))
        return BinOp(op, draw(child), draw(child))
    if kind == "shift":
        amount = Const(draw(st.integers(0, 4)), 3)
        return BinOp(draw(st.sampled_from(("shl", "shr"))), draw(child), amount)
    if kind == "not":
        return UnOp("not", draw(child))
    if kind == "mux":
        return Mux(draw(child), draw(child), draw(child))
    if kind == "cat":
        return Cat(tuple(draw(st.lists(child, min_size=1, max_size=3))))
    return MemRead("mem", _row(draw(child)))


def _reference(expr, values, rows):
    """The IR's meaning of an expression: Python integers, lazy muxes."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return values[expr.name]
    if isinstance(expr, Slice):
        width = expr.msb - expr.lsb + 1
        return (values[expr.ref.name] >> expr.lsb) & ((1 << width) - 1)
    if isinstance(expr, UnOp):
        return 0 if _reference(expr.operand, values, rows) else 1
    if isinstance(expr, BinOp):
        return _PYTHON_OPS[expr.op](
            _reference(expr.left, values, rows), _reference(expr.right, values, rows)
        )
    if isinstance(expr, Mux):
        chosen = expr.if_true if _reference(expr.cond, values, rows) else expr.if_false
        return _reference(chosen, values, rows)
    if isinstance(expr, Cat):
        value = 0
        for part in expr.parts:
            width = expr_width(part, _INPUT_WIDTHS, {"mem": 8})
            part_value = _reference(part, values, rows) & ((1 << width) - 1)
            value = (value << width) | part_value
        return value
    return rows[_reference(expr.addr, values, rows)]


def _expression_module(expr, cond) -> Module:
    """``expr`` on three outputs; a register and a memory row written from it."""
    return Module(
        name="exprs",
        ports=tuple(Port(name, width, "in") for name, width in _INPUT_WIDTHS.items())
        + (Port("clk", 1, "in"),)
        + tuple(Port(name, width, "out") for name, width in _OUTPUT_WIDTHS.items()),
        regs=(Reg("r", 6),),
        memories=(Memory("mem", 8, 4),),
        assigns=tuple(Assign(name, expr) for name in _OUTPUT_WIDTHS),
        processes=(
            Process(
                "seq",
                (
                    SIf(cond, (SAssign("r", expr),), (SAssign("r", cond),)),
                    SIf(Ref("s"), (MemWrite("mem", _row(expr), cond),)),
                ),
            ),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(
    expr=_exprs(),
    cond=_exprs(),
    inputs=st.fixed_dictionaries(
        {name: st.integers(0, (1 << width) - 1) for name, width in _INPUT_WIDTHS.items()}
    ),
    rows=st.lists(st.integers(0, 255), min_size=4, max_size=4),
)
# A negative difference on every output, and a condition that is a
# bitwise ``and`` of two multi-bit values with no common bit.
@example(
    expr=BinOp("sub", Ref("y"), Ref("x")),
    cond=BinOp("and", Ref("x"), Ref("y")),
    inputs={"x": 2, "y": 1, "s": 1},
    rows=[0, 0, 0, 0],
)
# Shifts and slices at the output widths, negative parts of a
# concatenation, and a memory read through a computed address.
@example(
    expr=Cat(
        (
            BinOp("shr", Ref("x"), Const(3, 3)),
            BinOp("sub", Ref("s"), Ref("y")),
            MemRead("mem", _row(BinOp("add", Ref("x"), Ref("y")))),
        )
    ),
    cond=BinOp("shl", Slice(Ref("x"), 6, 3), Const(4, 3)),
    inputs={"x": 0xFF, "y": 9, "s": 0},
    rows=[0x81, 0x42, 0x24, 0x18],
)
# A right shift wider than the narrow outputs, and a low slice, which is
# zero, as the condition.
@example(
    expr=BinOp("shr", Ref("x"), Const(3, 3)),
    cond=Slice(Ref("x"), 2, 0),
    inputs={"x": 0xF8, "y": 3, "s": 1},
    rows=[0, 0, 0, 0],
)
def test_generated_source_keeps_the_ir_semantics(expr, cond, inputs, rows):
    sim = EventSimulator(_expression_module(expr, cond))
    sim.memories["mem"][:] = rows
    for name, value in inputs.items():
        sim.poke(name, value)
    sim.settle()
    value = _reference(expr, inputs, rows)
    for name, width in _OUTPUT_WIDTHS.items():
        assert sim.peek(name) == value & ((1 << width) - 1), name

    taken = _reference(cond, inputs, rows)
    written = list(rows)
    if inputs["s"]:
        written[value & 3] = taken & 0xFF
    sim.step()
    assert sim.peek("r") == (value if taken else taken) & 0x3F
    assert sim.memories["mem"] == written
