"""Pinned digests of the RTL tier.

The values were recorded while :class:`~repro.hdl.eventsim.EventSimulator`
still interpreted the netlist as a tree of closures and settled it in
repeated passes.  However the netlist is executed, none of them may move.
Each line of a digest holds one :meth:`HdlModSRAM.multiply`: its product
and cycle report (or the error it raised), the simulator's ``events`` and
``cycle`` deltas, and every signal value and memory row after it.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.hdl.eventsim import HdlModSRAM
from repro.modsram.config import ModSRAMConfig, PAPER_CONFIG

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47

#: Operand widths of the per-width pins (both range modes each).
WIDTHS = (16, 24, 32, 48, 64)

#: The extra-fold cases of ``tests/modsram/test_fast_tier_pins.py``:
#: ``(bits, a, b, p)`` in paper mode.
EXTRA_FOLD_CASES = ((12, 565, 187, 3585), (16, 9490, 58192, 59009))


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def _modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _config(bits: int, full_range: bool) -> ModSRAMConfig:
    return ModSRAMConfig(extend_for_full_range=full_range).with_bitwidth(bits)


def _multiplier_limit(config: ModSRAMConfig, modulus: int) -> int:
    """Exclusive bound on the multiplier ``a`` the schedule accepts."""
    if config.extend_for_full_range:
        return modulus
    return min(modulus, 1 << (2 * config.iterations - 1))


def _operations(bits: int, full_range: bool):
    """Edge operands, LUT reuse, a rejected call, then a modulus change."""
    config = _config(bits, full_range)
    rng = random.Random(f"rtl/{bits}/{full_range}")
    calls = []
    for modulus in (_modulus(rng, bits), _modulus(rng, bits - 1)):
        limit = _multiplier_limit(config, modulus)
        reused = rng.randrange(modulus)
        calls.append((limit - 1, modulus - 1, modulus))
        calls.extend((rng.randrange(limit), reused, modulus) for _ in range(3))
        calls.append((modulus, 1, modulus))
        calls.append((rng.randrange(limit), rng.randrange(modulus), modulus))
    return config, calls


def rtl_digest(config: ModSRAMConfig, calls) -> str:
    """Per-call results and the simulator's whole state after each call."""
    tier = HdlModSRAM(config)
    sim = tier.macro.sim
    lines = []
    for a, b, modulus in calls:
        events, cycle = sim.events, sim.cycle
        try:
            result = tier.multiply(a, b, modulus)
        except Exception as exc:  # the error itself is part of the pin
            outcome = (type(exc).__name__, str(exc))
        else:
            outcome = (result.product, result.report.as_dict())
        lines.append(
            (
                outcome,
                sim.events - events,
                sim.cycle - cycle,
                sorted(sim.values.items()),
                sorted(sim.memories.items()),
            )
        )
    return _digest(lines)


PINS_RTL = {
    (16, True): "da94e93792ecfac4",
    (16, False): "3d586de15cb817e7",
    (24, True): "a8427567f496e9d8",
    (24, False): "568910c90a9eb3f2",
    (32, True): "98619fad0b93636e",
    (32, False): "34962ac98fdf7090",
    (48, True): "1d9b476bd1915216",
    (48, False): "7e48e069874c0998",
    (64, True): "7a13151b61a7b76c",
    (64, False): "37043870bbf324e3",
}

PINS_EXTRA_FOLD = {
    12: "07ecc61708ad2d6a",
    16: "5f07e46ca5b8bc5c",
}

PIN_PAPER_POINT = "1dd92995185626af"


@pytest.mark.parametrize("full_range", [True, False], ids=["full", "paper"])
@pytest.mark.parametrize("bits", WIDTHS)
def test_rtl_tier_is_pinned(bits, full_range):
    assert rtl_digest(*_operations(bits, full_range)) == PINS_RTL[bits, full_range]


@pytest.mark.parametrize("bits,a,b,modulus", EXTRA_FOLD_CASES)
def test_extra_fold_cases_are_pinned(bits, a, b, modulus):
    config = _config(bits, full_range=False)
    first = HdlModSRAM(config).multiply(a, b, modulus)
    assert first.report.extra_overflow_folds > 0
    calls = [(a, b, modulus), (a, b, modulus)]
    assert rtl_digest(config, calls) == PINS_EXTRA_FOLD[bits]


def test_paper_point_is_pinned():
    """The 256-bit paper point: 767 main-loop cycles measured from the RTL."""
    a, b = (BN254_P * 5) // 7, (BN254_P * 3) // 11
    calls = [(a, b, BN254_P), (a // 3, b, BN254_P), (b, a, BN254_P)]
    first = HdlModSRAM(PAPER_CONFIG).multiply(*calls[0])
    assert first.report.iteration_cycles == 767
    assert rtl_digest(PAPER_CONFIG, calls) == PIN_PAPER_POINT
