"""Tests for the baseline modular-multiplication algorithms.

Covers Algorithm 1 (interleaved), Algorithm 2 (radix-4 interleaved), the
radix-2 CSA interleaved variant, Montgomery, Barrett and the schoolbook
oracle, plus the registry through which they are all exposed.
"""

from __future__ import annotations

import pytest

import repro.modsram  # noqa: F401  (registers the "modsram" multiplier)
from repro.core import (
    BarrettMultiplier,
    CsaInterleavedMultiplier,
    InterleavedMultiplier,
    MontgomeryMultiplier,
    Radix4InterleavedMultiplier,
    SchoolbookMultiplier,
    available_multipliers,
    get_multiplier,
)
from repro.core.algorithms.barrett import BarrettContext
from repro.core.algorithms.montgomery import MontgomeryContext
from repro.errors import ConfigurationError, ModulusError, OperandRangeError

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47

ALL_ALGORITHMS = (
    SchoolbookMultiplier,
    InterleavedMultiplier,
    Radix4InterleavedMultiplier,
    CsaInterleavedMultiplier,
    MontgomeryMultiplier,
    BarrettMultiplier,
)


@pytest.fixture(params=ALL_ALGORITHMS, ids=lambda cls: cls.name)
def multiplier(request):
    return request.param()


class TestCommonBehaviour:
    def test_small_known_product(self, multiplier):
        assert multiplier.multiply(7, 9, 11) == (7 * 9) % 11

    def test_zero_operand(self, multiplier):
        assert multiplier.multiply(0, 5, 97) == 0
        assert multiplier.multiply(5, 0, 97) == 0

    def test_one_operand(self, multiplier):
        assert multiplier.multiply(1, 83, 97) == 83

    def test_maximal_operands(self, multiplier):
        modulus = 65521
        assert multiplier.multiply(modulus - 1, modulus - 1, modulus) == 1

    def test_large_curve_operands(self, multiplier, rng):
        for _ in range(5):
            a = rng.randrange(BN254_P)
            b = rng.randrange(BN254_P)
            assert multiplier.multiply(a, b, BN254_P) == (a * b) % BN254_P

    def test_result_always_reduced(self, multiplier, rng, small_modulus):
        for _ in range(20):
            a = rng.randrange(small_modulus)
            b = rng.randrange(small_modulus)
            result = multiplier.multiply(a, b, small_modulus)
            assert 0 <= result < small_modulus
            assert result == (a * b) % small_modulus

    def test_operand_validation(self, multiplier):
        with pytest.raises(OperandRangeError):
            multiplier.multiply(97, 1, 97)
        with pytest.raises(OperandRangeError):
            multiplier.multiply(-1, 1, 97)
        with pytest.raises(ModulusError):
            multiplier.multiply(0, 0, 1)

    def test_stats_track_multiplications(self, multiplier):
        multiplier.multiply(3, 4, 97)
        multiplier.multiply(5, 6, 97)
        assert multiplier.stats.multiplications == 2
        multiplier.reset_stats()
        assert multiplier.stats.multiplications == 0


class TestInterleaved:
    def test_iteration_count_tracks_multiplier_bits(self):
        multiplier = InterleavedMultiplier()
        multiplier.multiply(0b1011, 7, 13)
        assert multiplier.stats.iterations == 4

    def test_cycle_model_is_linear(self):
        multiplier = InterleavedMultiplier()
        assert multiplier.cycles(256) == 6 * 256
        assert multiplier.cycles(64) == 6 * 64


class TestRadix4Interleaved:
    def test_halves_the_iterations(self, rng):
        radix4 = Radix4InterleavedMultiplier(full_range=False)
        modulus = (1 << 64) - 59
        a = rng.randrange(1 << 62)
        b = rng.randrange(modulus)
        radix4.multiply(a, b, modulus)
        assert radix4.stats.iterations == 32

    def test_full_range_handles_top_bit(self, rng):
        radix4 = Radix4InterleavedMultiplier(full_range=True)
        modulus = (1 << 64) - 59
        a = modulus - 1
        b = rng.randrange(modulus)
        assert radix4.multiply(a, b, modulus) == (a * b) % modulus

    def test_paper_mode_rejects_top_bit(self):
        radix4 = Radix4InterleavedMultiplier(full_range=False)
        modulus = (1 << 64) - 59
        with pytest.raises(OperandRangeError):
            radix4.multiply(modulus - 1, 3, modulus)

    def test_cycle_model(self):
        assert Radix4InterleavedMultiplier().cycles(256) == 5 * 128


class TestCsaInterleaved:
    def test_uses_carry_save_additions(self, rng):
        multiplier = CsaInterleavedMultiplier()
        modulus = 65521
        multiplier.multiply(rng.randrange(modulus), rng.randrange(modulus), modulus)
        assert multiplier.stats.carry_save_additions == 2 * 16
        assert multiplier.stats.full_additions == 1  # only the final addition

    def test_cycle_model(self):
        assert CsaInterleavedMultiplier().cycles(256) == 6 * 256 - 1


class TestMontgomery:
    def test_context_constants(self):
        context = MontgomeryContext.create(97)
        assert context.radix == 128
        assert (context.modulus_inverse * 97) % context.radix == context.radix - 1

    def test_reduce_matches_definition(self, rng):
        context = MontgomeryContext.create(65521)
        for _ in range(50):
            value = rng.randrange(65521 * context.radix)
            reduced = context.reduce(value)
            assert reduced == (value * pow(context.radix, -1, 65521)) % 65521

    def test_round_trip_through_montgomery_form(self, rng):
        context = MontgomeryContext.create(BN254_P)
        value = rng.randrange(BN254_P)
        assert context.from_montgomery(context.to_montgomery(value)) == value

    def test_multiply_in_montgomery_form(self, rng):
        context = MontgomeryContext.create(BN254_P)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        product = context.from_montgomery(
            context.multiply(context.to_montgomery(a), context.to_montgomery(b))
        )
        assert product == (a * b) % BN254_P

    def test_even_modulus_rejected(self):
        with pytest.raises(ModulusError):
            MontgomeryContext.create(100)

    def test_reduce_input_range_checked(self):
        context = MontgomeryContext.create(97)
        with pytest.raises(OperandRangeError):
            context.reduce(97 * context.radix)

    def test_context_is_cached_per_modulus(self):
        multiplier = MontgomeryMultiplier()
        multiplier.multiply(3, 4, 97)
        multiplier.multiply(5, 6, 97)
        assert multiplier.stats.precomputations == 1
        multiplier.multiply(5, 6, 101)
        assert multiplier.stats.precomputations == 2

    def test_cycle_model_is_quadratic_in_words(self):
        multiplier = MontgomeryMultiplier()
        assert multiplier.cycles(256) > multiplier.cycles(128) > multiplier.cycles(64)


class TestBarrett:
    def test_context_mu(self):
        context = BarrettContext.create(97)
        assert context.mu == (1 << (2 * 7)) // 97

    def test_reduce_matches_modulo(self, rng):
        context = BarrettContext.create(65521)
        for _ in range(50):
            value = rng.randrange(65521 * 65521)
            assert context.reduce(value) == value % 65521

    def test_reduce_range_checked(self):
        context = BarrettContext.create(97)
        with pytest.raises(OperandRangeError):
            context.reduce(97 * 97)

    def test_context_cached(self):
        multiplier = BarrettMultiplier()
        multiplier.multiply(3, 4, 97)
        multiplier.multiply(5, 6, 97)
        assert multiplier.stats.precomputations == 1


class TestRegistry:
    def test_all_algorithms_registered(self):
        names = available_multipliers()
        for expected in (
            "schoolbook",
            "interleaved",
            "radix4-interleaved",
            "csa-interleaved",
            "montgomery",
            "barrett",
            "r4csa-lut",
            "modsram",
        ):
            assert expected in names

    def test_get_by_name(self):
        assert get_multiplier("interleaved") is InterleavedMultiplier
        assert get_multiplier("barrett") is BarrettMultiplier

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_multiplier("does-not-exist")

    def test_descriptions_are_non_empty(self):
        for name in available_multipliers():
            assert get_multiplier(name).description
