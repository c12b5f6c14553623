"""Pinned digests of the analytical tier and everything built on it.

The values were recorded while the analytical tier still ran the shared
per-step kernel (:func:`repro.modsram.kernel.run_kernel`) on a
register-file host.  Running the same recurrence as one word-level loop
must not move any of them: products, LUT reuse, extra overflow folds,
finalisation subtractions, cycle reports, per-multiplication and
cumulative operation counts, array and datapath statistics, energy
reports, LUT residency, the chip's graph schedules, a full ECDSA sign on
``modsram-fast`` and the errors raised for invalid input.
"""

from __future__ import annotations

import hashlib
import random
from typing import Tuple

import pytest

from repro.ecc.ecdsa import Ecdsa
from repro.engine import Engine
from repro.modsram import (
    AnalyticalModSRAM,
    Chip,
    FastHost,
    ModSRAMConfig,
    PAPER_CONFIG,
)
from repro.workloads import product_tree_graph

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47

#: Operand widths of the per-tier pins (both range modes each).
WIDTHS = (4, 5, 8, 12, 13, 16, 24, 31, 32, 48, 64)

#: Widths of the chip pins (both range modes each).
CHIP_WIDTHS = (16, 32, 64)

#: The two reachable extra-fold cases: ``(bits, a, b, p)`` in paper mode.
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
    """A seeded call sequence: edges, LUT reuse, a modulus change, errors.

    Invalid calls sit in the middle of the sequence, so a tier that
    changed any state before rejecting them would move the later digests.
    """
    config = _config(bits, full_range)
    rng = random.Random(f"{bits}/{full_range}")
    calls = []
    for modulus in (_modulus(rng, bits), _modulus(rng, bits - 1)):
        limit = _multiplier_limit(config, modulus)
        for b in (0, 1, modulus - 1):
            for a in (0, 1, limit - 1):
                calls.append((a, b, modulus))
        reused = rng.randrange(modulus)
        calls.extend((rng.randrange(limit), reused, modulus) for _ in range(4))
        calls.extend(
            (rng.randrange(limit), rng.randrange(modulus), modulus)
            for _ in range(6)
        )
        calls.append((modulus, 1, modulus))
        calls.append((1, -1, modulus))
        if limit < modulus:
            calls.append((limit, 1, modulus))
    calls.append((1, 1, 2))
    calls.append((1, 1, (1 << bits) + 1))
    if bits > 5:
        calls.append((1, 1, 5))
    calls.append(calls[0])
    return config, calls


def _run(simulator, calls, line_of):
    lines = []
    for a, b, modulus in calls:
        try:
            result = simulator.multiply(a, b, modulus)
        except Exception as exc:  # the error itself is part of the pin
            lines.append((type(exc).__name__, str(exc)))
        else:
            lines.append(line_of(result))
    return lines


class _PerMultiplication:
    """A fast host whose ``multiply`` returns that call's own charges."""

    def __init__(self, host: FastHost) -> None:
        self.host = host

    def multiply(self, a: int, b: int, modulus: int):
        host = self.host
        counts, stats = host.counter.as_dict(), host.stats.as_dict()
        outcome = host.multiply(a, b, modulus)
        after, stats_after = host.counter.as_dict(), host.stats.as_dict()
        operations = {
            name: after[name] - counts.get(name, 0)
            for name in after
            if after[name] != counts.get(name, 0)
        }
        return (
            outcome.product, outcome.lut_reused,
            outcome.extra_overflow_folds, outcome.finalize_subtractions,
            operations, {name: stats_after[name] - stats[name] for name in stats},
        )


def _analytical_line(result):
    return result.product, result.report.as_dict()


def host_digest(config: ModSRAMConfig, calls) -> str:
    """Per-call outcomes and charges plus the cumulative state of one host.

    Each line holds one multiplication's own operation counts and access
    profile, not the running totals the analytical digest reads.
    """
    host = AnalyticalModSRAM(config).host
    lines = _run(_PerMultiplication(host), calls, lambda line: line)
    lines.append(host.counter.as_dict())
    lines.append(host.stats.as_dict())
    lines.append(host.datapath.stats.as_dict())
    lines.append((host.lut_residency.multiplicand, host.lut_residency.modulus))
    return _digest(lines)


def analytical_digest(config: ModSRAMConfig, calls) -> str:
    """Per-call results plus the cumulative state of one analytical macro."""
    simulator = AnalyticalModSRAM(config)
    lines = _run(simulator, calls, _analytical_line)
    host = simulator.host
    lines.append(host.counter.as_dict())
    lines.append(host.stats.as_dict())
    lines.append(host.datapath.stats.as_dict())
    lines.append(simulator.energy_report().as_dict())
    lines.append((host.lut_residency.multiplicand, host.lut_residency.modulus))
    return _digest(lines)


def chip_digest(config: ModSRAMConfig, modulus: int, leaves) -> Tuple[str, str]:
    """Two product-tree runs on one 4-macro chip, as two digests.

    The fresh-chip half holds the first run's products and schedule.  The
    used-chip half holds the second run, then the chip's cumulative
    ``activity()`` (read by name), access profile and energy.
    """
    chip = Chip(4, config)
    graph = product_tree_graph(leaves)
    first = chip.run_graph(graph, modulus)
    second = chip.run_graph(graph, modulus)
    activity = chip.activity()
    fresh = [first.values, first.schedule.as_dict()]
    used = [
        second.values,
        second.schedule.as_dict(),
        (
            activity.operation, activity.macros, activity.jobs,
            activity.per_macro_jobs, activity.per_macro_busy_cycles,
            activity.makespan_cycles, activity.lut_refills,
            activity.lut_reuse_rate, activity.utilization,
            activity.latency_ms, activity.throughput_mops,
        ),
        chip.stats().as_dict(),
        chip.energy_report().as_dict(),
    ]
    return _digest(fresh), _digest(used)


def _chip_case(bits: int, full_range: bool):
    rng = random.Random(f"chip/{bits}/{full_range}")
    # Paper mode needs every tree value's top bit clear, so its modulus is
    # one bit narrower than the macro.
    modulus = _modulus(rng, bits if full_range else bits - 1)
    leaves = [rng.randrange(1, modulus) for _ in range(24)]
    return _config(bits, full_range), modulus, leaves


#: Recorded on the since-deleted functional tier, which wrapped the same
#: :class:`FastHost` and returned these per-multiplication charges.
PINS_HOST = {
    (4, True): "03e42b22f077d66f",
    (4, False): "88110354d32b0330",
    (5, True): "0a0f96d305d902e0",
    (5, False): "d85c51a88d37bdde",
    (8, True): "e8368effbe1e9986",
    (8, False): "ff57d378c8c24817",
    (12, True): "341711b7e477d56f",
    (12, False): "604949390c4909db",
    (13, True): "05695bb5cad7a8b0",
    (13, False): "c2d76c2953b8a857",
    (16, True): "383f51dc064cbf9b",
    (16, False): "2c3adf02c392384d",
    (24, True): "297233691f88de99",
    (24, False): "ff013a8d070b3d6f",
    (31, True): "bd93b05fb5e39a40",
    (31, False): "7efeb997f7c401c3",
    (32, True): "3ba83a2988fd84a8",
    (32, False): "13e86ae8bd397232",
    (48, True): "b89148e8702c1d26",
    (48, False): "6eec42a5d894ea94",
    (64, True): "e52c895beca1dec2",
    (64, False): "9eca62f11a3848c3",
}

PINS_ANALYTICAL = {
    (4, True): "4c6e0a2fc7102353",
    (4, False): "a228255baf2da4bf",
    (5, True): "d9f4f0c6ccb394b2",
    (5, False): "f9450b276c7b00d1",
    (8, True): "dd95812ff8bc8155",
    (8, False): "69028d94e7884336",
    (12, True): "4a8aeb8121c87acd",
    (12, False): "cbb27c0db838dbd1",
    (13, True): "f528691213f695a5",
    (13, False): "6c51d61bee176c91",
    (16, True): "6d30fd9e41f0314d",
    (16, False): "f5e839cb67558510",
    (24, True): "2ef536300a860bfc",
    (24, False): "96c3fcd1429c797c",
    (31, True): "162a17d977f9a768",
    (31, False): "067b4b2e39e7627d",
    (32, True): "b0097758ba327474",
    (32, False): "3b809b16e8d39eba",
    (48, True): "6c7ec948c967548a",
    (48, False): "63a7763402185027",
    (64, True): "926ead5e5fdfbc2d",
    (64, False): "5978911b39cb23db",
}

#: ``(fresh chip, used chip)`` halves of :func:`chip_digest`.  The
#: used-chip halves were re-recorded when :meth:`Chip.run_graph` moved onto
#: the chip's own placement state; the fresh-chip halves never moved.
PINS_CHIP = {
    (16, True): ("7f9a7de4de708db8", "bae17780df648b9e"),
    (16, False): ("ab1842df49e2c824", "1f8e85ed3b052f70"),
    (32, True): ("2d1cf253349ee4f7", "dabafa7eea8f8e39"),
    (32, False): ("04f3a259e9427265", "aabe40eab407c038"),
    (64, True): ("30f227358e0fa54f", "1ba96020cd402ca4"),
    (64, False): ("a92ddad86c93ec40", "01cd516094352c79"),
}

PIN_PAPER_POINT = ("925065a8b7da9971", "b9094cff4dc77b5d")
PINS_EXTRA_FOLD = {
    12: ("307a2ffd48fad2d5", "c6c1536d1cdbf15e"),
    16: ("580aa14c842af0b5", "c8a4d40e9f53c20b"),
}
PIN_PAPER_CHIP = ("0a61f7a241c0f899", "b3797f7c3af7a3a5")
PIN_P256_SIGN = "e496404cac4516a9"


def _paper_point_calls():
    a, b = (BN254_P * 5) // 7, (BN254_P * 3) // 11
    return [(a, b, BN254_P), (a // 3, b, BN254_P), (b, a, BN254_P)]


@pytest.mark.parametrize("full_range", [True, False], ids=["full", "paper"])
@pytest.mark.parametrize("bits", WIDTHS)
def test_fast_host_is_pinned(bits, full_range):
    config, calls = _operations(bits, full_range)
    assert host_digest(config, calls) == PINS_HOST[bits, full_range]


@pytest.mark.parametrize("full_range", [True, False], ids=["full", "paper"])
@pytest.mark.parametrize("bits", WIDTHS)
def test_analytical_tier_is_pinned(bits, full_range):
    config, calls = _operations(bits, full_range)
    assert analytical_digest(config, calls) == PINS_ANALYTICAL[bits, full_range]


@pytest.mark.parametrize("full_range", [True, False], ids=["full", "paper"])
@pytest.mark.parametrize("bits", CHIP_WIDTHS)
def test_chip_product_tree_is_pinned(bits, full_range):
    assert chip_digest(*_chip_case(bits, full_range)) == PINS_CHIP[bits, full_range]


def test_paper_point_is_pinned():
    """The 256-bit paper point: 767 main-loop cycles on the analytical tier."""
    calls = _paper_point_calls()
    first = AnalyticalModSRAM(PAPER_CONFIG).multiply(*calls[0])
    assert first.report.iteration_cycles == 767
    assert (
        host_digest(PAPER_CONFIG, calls),
        analytical_digest(PAPER_CONFIG, calls),
    ) == PIN_PAPER_POINT


@pytest.mark.parametrize("bits,a,b,modulus", EXTRA_FOLD_CASES)
def test_extra_fold_cases_are_pinned(bits, a, b, modulus):
    config = _config(bits, full_range=False)
    calls = [(a, b, modulus), (a, b, modulus)]
    assert (
        host_digest(config, calls),
        analytical_digest(config, calls),
    ) == PINS_EXTRA_FOLD[bits]


def test_paper_point_chip_tree_is_pinned():
    rng = random.Random("chip/paper")
    leaves = [rng.randrange(1, BN254_P) for _ in range(32)]
    assert chip_digest(PAPER_CONFIG, BN254_P, leaves) == PIN_PAPER_CHIP


def test_p256_sign_on_the_fast_backend_is_pinned():
    """Recorded on the functional tier, since deleted; same multiply loop."""
    engine = Engine(backend="modsram-fast", curve="p256")
    signature = Ecdsa(engine.curve("p256")).sign(0x1CE1CE1CE1CE1CE, b"pin")
    stats = engine.stats().operations
    assert _digest(
        [signature.r, signature.s, stats.multiplications, stats.precomputations]
    ) == PIN_P256_SIGN
