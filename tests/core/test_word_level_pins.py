"""Pinned digests of the carry-save algorithms and the cycle tier.

The values were recorded while the carry-save accumulator was still a pair
of bit-vector objects and every logic-SA access was sensed column by
column.  Modelling a noiseless access on whole words must not move any of
them: the products, every operation count, the per-iteration snapshots, the
cycle reports, the array and datapath statistics and the cycle-by-cycle
trace all stay bit-identical.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import CsaInterleavedMultiplier, R4CSALutMultiplier
from repro.modsram import ModSRAMAccelerator, ModSRAMConfig
from repro.modsram.config import PAPER_CONFIG

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47

#: Widths of the algorithm pins, from the smallest legal modulus up.
ALGORITHM_WIDTHS = (3, 4, 5, 8, 13, 16, 31, 32, 61, 64, 128, 256)

#: Random operand pairs per width, on top of the 0/1/p-1 products.
RANDOM_PAIRS = 6


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def _modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _pairs(rng: random.Random, modulus: int):
    edges = (0, 1, modulus - 1)
    pairs = [(a, b) for a in edges for b in edges]
    pairs.extend(
        (rng.randrange(modulus), rng.randrange(modulus))
        for _ in range(RANDOM_PAIRS)
    )
    return pairs


def r4csa_lut_digest(bits: int) -> str:
    """Products, stats and every traced iteration of ``r4csa-lut``."""
    rng = random.Random(bits)
    modulus = _modulus(rng, bits)
    multiplier = R4CSALutMultiplier(record_trace=True)
    lines = []
    for a, b in _pairs(rng, modulus):
        lines.append(multiplier.multiply(a, b, modulus))
        lines.extend(
            (s.iteration, s.digit, s.overflow_index, s.sum_word, s.carry_word,
             s.pending_overflow)
            for s in multiplier.last_trace
        )
    lines.append(multiplier.stats.as_dict())
    return _digest(lines)


def csa_interleaved_digest(bits: int) -> str:
    """Products and stats of ``csa-interleaved``."""
    rng = random.Random(bits)
    modulus = _modulus(rng, bits)
    multiplier = CsaInterleavedMultiplier()
    lines = [multiplier.multiply(a, b, modulus) for a, b in _pairs(rng, modulus)]
    lines.append(multiplier.stats.as_dict())
    return _digest(lines)


def _cycle_tier_runs(config: ModSRAMConfig, operands):
    accelerator = ModSRAMAccelerator(config, trace=True)
    results = []
    lines = []
    for a, b, modulus in operands:
        result = accelerator.multiply(a, b, modulus)
        results.append(result)
        lines.append(result.product)
        lines.append(result.report.as_dict())
        lines.extend(
            (e.cycle, e.phase.value, e.iteration, e.rows_read, e.rows_written,
             e.digit, e.overflow_index, e.note)
            for e in result.trace.events
        )
    lines.append(accelerator.array.stats.as_dict())
    lines.append(accelerator.counter.as_dict())
    lines.append(accelerator.datapath.stats.as_dict())
    lines.append(accelerator.sense_module.accesses)
    return results, _digest(lines)


def cycle_tier_digest(bits: int) -> str:
    """Three multiplications (the second reuses the LUTs) on one macro."""
    rng = random.Random(bits)
    modulus = _modulus(rng, bits)
    a, b, c = (rng.randrange(modulus) for _ in range(3))
    operands = [(a, b, modulus), (c, b, modulus), (b, c, modulus)]
    return _cycle_tier_runs(ModSRAMConfig().with_bitwidth(bits), operands)[1]


PINS_R4CSA_LUT = {
    3: "d3a7845772083874", 4: "6cfa54e8dcd1645f", 5: "9325da96f689279a",
    8: "415072831adffa3a", 13: "02a01e5934137d56", 16: "7342586dfea148b0",
    31: "56a1564b93489ce6", 32: "6fdfb5e8e24f552c", 61: "83c2e95c1bfa9298",
    64: "20f2fdc374206707", 128: "93e75bf9f93e375c", 256: "bed6377d1809f6dd",
}

PINS_CSA_INTERLEAVED = {
    3: "182bb72ba8f1ea2a", 4: "28f579061b47009b", 5: "11790c8588780b86",
    8: "c40719eafe246794", 13: "8d305319a6e0a747", 16: "5b1e37a1e7ecb97f",
    31: "05cba986beef4264", 32: "d31e1843386cbf19", 61: "a964fd17a65bbcf2",
    64: "ce3dd160df3b96d5", 128: "4299e959fb701d09", 256: "17cd9a051ba87c75",
}

PINS_CYCLE_TIER = {
    16: "c0dd7e3fac29e9a7", 24: "88248815da83c52e", 32: "d59d6bd132c45ed9",
    48: "435cd0b9da9ea60e", 64: "e180c0f116fe4e2b",
}

PIN_PAPER_POINT = "c886e907fca368cc"


@pytest.mark.parametrize("bits", ALGORITHM_WIDTHS)
def test_r4csa_lut_is_pinned(bits):
    assert r4csa_lut_digest(bits) == PINS_R4CSA_LUT[bits]


@pytest.mark.parametrize("bits", ALGORITHM_WIDTHS)
def test_csa_interleaved_is_pinned(bits):
    assert csa_interleaved_digest(bits) == PINS_CSA_INTERLEAVED[bits]


@pytest.mark.parametrize("bits", sorted(PINS_CYCLE_TIER))
def test_cycle_tier_is_pinned(bits):
    assert cycle_tier_digest(bits) == PINS_CYCLE_TIER[bits]


def test_paper_point_is_pinned():
    """The 256-bit paper point: 767 main-loop cycles and a pinned trace."""
    a, b = (BN254_P * 5) // 7, (BN254_P * 3) // 11
    (result,), digest = _cycle_tier_runs(PAPER_CONFIG, [(a, b, BN254_P)])
    assert result.product == a * b % BN254_P
    assert result.report.iteration_cycles == 767
    assert digest == PIN_PAPER_POINT
