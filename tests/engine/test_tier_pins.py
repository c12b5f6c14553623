"""Pinned behaviour of the ModSRAM tier backends and the cycle tier's trace.

The values were recorded while five modules each restated which simulator
runs which tier (one backend class per tier, a class-name table in the
fidelity module, one simulator factory per multiplier adapter) and while
the cycle tier collected its trace through a pluggable sink.  However the
tiers are wired, none of them may move: the backend listing, three
multiplications per tier backend (products, modeled cycles, the engine's
counters and the adapter's cycle aggregates), and the rendered trace of one
traced 8-bit multiplication.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.engine import Engine
from repro.modsram import ModSRAMAccelerator, ModSRAMConfig

MODULUS = 65521
#: The second pair repeats the first multiplicand, so single-macro tiers
#: reuse their resident LUTs once.
PAIRS = ((12345, 54321), (65520, 54321), (2, 3))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stats(precomputations: int) -> dict:
    return {
        "multiplications": 3,
        "iterations": 27,
        "full_additions": 0,
        "subtractions": 0,
        "carry_save_additions": 54,
        "shifts": 0,
        "comparisons": 0,
        "lut_lookups": 54,
        "precomputations": precomputations,
        "cache": {"hits": 2, "misses": 1, "evictions": 0, "hit_rate": 2 / 3},
    }


#: backend -> (engine stats, adapter main-loop cycle sum, LUT reuse rate).
#: The chip places the repeated multiplicand on an idle macro, which fills
#: its LUTs afresh.
TIER_PINS = {
    "modsram": (_stats(2), 159, 1 / 3),
    "modsram-fast": (_stats(2), 159, 1 / 3),
    "modsram-chip": (_stats(3), 159, 0.0),
    "modsram-hdl": (_stats(2), 159, 1 / 3),
}


def test_backend_listing(capsys):
    """The ``repro backends --json`` rows of the 11 registered multipliers."""
    assert main(["backends", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["backends"]
    assert len(rows) == 11
    assert _digest(json.dumps(rows, sort_keys=True)) == "ceab7b0882a69e46"


@pytest.mark.parametrize("backend", sorted(TIER_PINS))
def test_three_engine_multiplications(backend):
    stats, cycle_sum, reuse_rate = TIER_PINS[backend]
    engine = Engine(backend=backend, modulus=MODULUS)
    results = [engine.multiply(a, b) for a, b in PAIRS]
    assert [result.value for result in results] == [50831, 11200, 6]
    assert [result.modeled_cycles for result in results] == [53, 53, 53]
    assert engine.stats().as_dict() == stats
    multiplier = engine.context().multiplier
    assert multiplier.total_iteration_cycles() == cycle_sum
    assert multiplier.lut_reuse_rate() == reuse_rate


def test_traced_cycle_tier_render():
    config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(8)
    result = ModSRAMAccelerator(config, trace=True).multiply(0x2A, 0x51, 0xF1)
    text = result.trace.render()
    assert result.product == 0x2A * 0x51 % 0xF1
    assert len(text.splitlines()) == 67
    assert _digest(text) == "b760c5b5e99b19d2"
