"""Seeded differential fuzzing: event-driven RTL vs every modeled tier.

The HDL tier's value rests entirely on agreeing with the rest of the
stack, so this harness (mirroring the seeded fuzz in
``tests/core/test_r4csa_lut.py``) races four evaluators — the
event-driven simulator over the elaborated RTL, the cycle-accurate tier,
the analytical model and Python's big-int oracle — across the geometries
most likely to break the datapath:

* random odd moduli at widths from 16 to 256 bits (the big widths are
  sampled sparsely: one RTL multiply at 256 bits costs ~10 ms);
* Mersenne-adjacent moduli (``2**k - 1`` and neighbours), where the
  operands hug the top of the macro's word and every carry chain and
  shift-overflow path is exercised;
* near-power-of-two moduli at the *bottom* of the allowed bit-length
  band (``modulus.bit_length() == bitwidth - 2``), the worst case for
  the finalize conditional-subtract chain;
* degenerate operands: 0, 1 and the range limits.

Cycle reports must match the analytical model field by field — including
the paper's 767 main-loop cycles at the 256-bit ``n/2`` design point —
and every product must be bit-identical.  All cases are seeded.
"""

from __future__ import annotations

import random

import pytest

from repro.hdl.eventsim import HdlModSRAM
from repro.modsram.analytical import AnalyticalModSRAM
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.config import ModSRAMConfig, PAPER_CONFIG

#: One RNG seed for the whole harness — failures name their case.
SEED = 0x4D1

#: Widths fuzzed with several random moduli (cheap at small widths).
FAST_WIDTHS = (16, 17, 24, 31, 32, 48)
#: Widths fuzzed with one modulus each (RTL cost grows ~quadratically).
SLOW_WIDTHS = (64, 128, 256)

#: Random operand pairs per modulus, beyond the degenerate corners.
PAIRS_PER_CASE = 3


def _a_limit(config: ModSRAMConfig, modulus: int) -> int:
    """Upper bound (exclusive) for the multiplier operand ``a``."""
    if config.extend_for_full_range:
        return modulus
    return min(modulus, 1 << (2 * config.iterations - 1))


def _operands(config: ModSRAMConfig, modulus: int, rng: random.Random) -> list:
    limit = _a_limit(config, modulus)
    pairs = [(0, 0), (0, modulus - 1), (1, 1), (limit - 1, modulus - 1)]
    pairs.extend(
        (rng.randrange(limit), rng.randrange(modulus))
        for _ in range(PAIRS_PER_CASE)
    )
    return pairs


def _random_odd_modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _assert_parity(config: ModSRAMConfig, modulus: int, rng: random.Random):
    hdl = HdlModSRAM(config)
    cycle = ModSRAMAccelerator(config)
    analytical = AnalyticalModSRAM(config)
    for a, b in _operands(config, modulus, rng):
        case = f"p={modulus:#x} a={a:#x} b={b:#x} bw={config.bitwidth}"
        hdl_result = hdl.multiply(a, b, modulus)
        cycle_result = cycle.multiply(a, b, modulus)
        analytical_result = analytical.multiply(a, b, modulus)
        assert hdl_result.product == (a * b) % modulus, f"product ({case})"
        assert hdl_result.product == cycle_result.product, f"vs cycle ({case})"
        assert (
            hdl_result.report.as_dict() == cycle_result.report.as_dict()
        ), f"cycle report vs cycle tier ({case})"
        assert (
            hdl_result.report.as_dict() == analytical_result.report.as_dict()
        ), f"cycle report vs analytical ({case})"


@pytest.mark.parametrize("bits", FAST_WIDTHS)
def test_random_moduli_at_fast_widths(bits):
    """Random odd moduli at every cheap width, both schedule variants."""
    rng = random.Random(SEED ^ bits)
    for extend in (False, True):
        config = ModSRAMConfig(extend_for_full_range=extend).with_bitwidth(bits)
        _assert_parity(config, _random_odd_modulus(rng, bits), rng)


@pytest.mark.slow
@pytest.mark.parametrize("bits", SLOW_WIDTHS)
def test_random_moduli_at_slow_widths(bits):
    """One random modulus per expensive width (paper-mode schedule)."""
    rng = random.Random(SEED ^ bits)
    config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bits)
    _assert_parity(config, _random_odd_modulus(rng, bits), rng)


@pytest.mark.parametrize("k", (16, 24, 31))
def test_mersenne_adjacent_moduli(k):
    """``2**k - 1`` and close neighbours: maximal-weight operands."""
    rng = random.Random(SEED ^ (k << 8))
    config = ModSRAMConfig().with_bitwidth(k)
    for modulus in ((1 << k) - 1, (1 << k) - 3, (1 << k) - 5):
        _assert_parity(config, modulus, rng)


@pytest.mark.parametrize("bits", (18, 26, 34))
def test_short_moduli_at_the_bit_length_floor(bits):
    """Moduli at ``bit_length == bitwidth - 2``, the validation floor.

    This is the configuration where ``2**(n+1) mod p`` is largest
    relative to ``p`` — the finalize subtract chain runs its longest.
    """
    rng = random.Random(SEED ^ (bits << 16))
    config = ModSRAMConfig().with_bitwidth(bits)
    for _ in range(2):
        modulus = _random_odd_modulus(rng, bits - 2)
        _assert_parity(config, modulus, rng)


def test_paper_design_point_runs_767_main_loop_cycles():
    """Acceptance: the RTL reproduces the paper's headline cycle count."""
    rng = random.Random(SEED)
    hdl = HdlModSRAM(PAPER_CONFIG)
    modulus = _random_odd_modulus(rng, 256)
    a = rng.randrange(_a_limit(PAPER_CONFIG, modulus))
    b = rng.randrange(modulus)
    result = hdl.multiply(a, b, modulus)
    assert result.product == (a * b) % modulus
    assert result.report.iteration_cycles == 767
    analytical = AnalyticalModSRAM(PAPER_CONFIG).multiply(a, b, modulus)
    assert result.report.as_dict() == analytical.report.as_dict()


def test_lut_reuse_skips_precompute():
    """Back-to-back multiplies with the same (b, p) reuse the LUTs."""
    config = ModSRAMConfig().with_bitwidth(16)
    hdl = HdlModSRAM(config)
    analytical = AnalyticalModSRAM(config)
    modulus = 65521
    first = hdl.multiply(1234, 4321, modulus)
    second = hdl.multiply(999, 4321, modulus)
    assert first.report.precompute_cycles > 0
    assert second.report.precompute_cycles == 0
    assert second.report.lut_reused
    ref_first = analytical.multiply(1234, 4321, modulus)
    ref_second = analytical.multiply(999, 4321, modulus)
    assert first.report.as_dict() == ref_first.report.as_dict()
    assert second.report.as_dict() == ref_second.report.as_dict()


def test_consecutive_multiplies_match_oracle():
    config = ModSRAMConfig().with_bitwidth(20)
    hdl = HdlModSRAM(config)
    rng = random.Random(SEED)
    modulus = _random_odd_modulus(rng, 20)
    pairs = [
        (rng.randrange(_a_limit(config, modulus)), rng.randrange(modulus))
        for _ in range(4)
    ]
    results = [hdl.multiply(a, b, modulus) for a, b in pairs]
    assert [r.product for r in results] == [a * b % modulus for a, b in pairs]
