"""Tests for R4CSA-LUT (Algorithm 3), the paper's proposed algorithm."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import R4CSALutContext, R4CSALutMultiplier
from repro.core.algorithms.r4csa_lut import OVERFLOW_LUT_ENTRIES
from repro.errors import OperandRangeError

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47
SECP256K1_P = 2**256 - 2**32 - 977


class TestCorrectness:
    def test_small_known_values(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(21, 18, 24 | 1) == (21 * 18) % 25
        assert multiplier.multiply(7, 9, 11) == 63 % 11

    def test_paper_five_bit_example_operands(self):
        """The Figure 3 walk-through operands: A=10101, B=10010, p=11000(+1)."""
        multiplier = R4CSALutMultiplier()
        a, b, p = 0b10101, 0b10010, 0b11001  # an odd 5-bit modulus
        assert multiplier.multiply(a, b, p) == (a * b) % p

    def test_bn254_operands(self, rng):
        multiplier = R4CSALutMultiplier()
        for _ in range(10):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            assert multiplier.multiply(a, b, BN254_P) == (a * b) % BN254_P

    def test_secp256k1_full_range_operands(self, rng):
        multiplier = R4CSALutMultiplier(full_range=True)
        for _ in range(10):
            a, b = rng.randrange(SECP256K1_P), rng.randrange(SECP256K1_P)
            assert multiplier.multiply(a, b, SECP256K1_P) == (a * b) % SECP256K1_P

    def test_identity_and_zero(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(0, 12345, BN254_P) == 0
        assert multiplier.multiply(1, 12345, BN254_P) == 12345
        assert multiplier.multiply(BN254_P - 1, 1, BN254_P) == BN254_P - 1

    @given(
        st.integers(3, 2**64 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_for_random_moduli(self, modulus, data):
        modulus |= 1  # the register sizing assumes nothing, but avoid even edge
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(a, b, modulus) == (a * b) % modulus

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_for_curve_sized_operands(self, data):
        modulus = data.draw(st.sampled_from([BN254_P, SECP256K1_P]))
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(a, b, modulus) == (a * b) % modulus


class TestStructure:
    def test_iteration_count_paper_mode(self, rng):
        """The algorithm needs ceil(n/2) iterations for an n-bit modulus.

        The functional reference sizes its registers from the modulus
        (254 bits for BN254, hence 127 iterations); the 256-bit hardware
        datapath of the accelerator performs 128 (see the modsram tests).
        """
        multiplier = R4CSALutMultiplier(full_range=False)
        a = rng.randrange(BN254_P)  # BN254 operands keep bit 255 clear
        b = rng.randrange(BN254_P)
        multiplier.multiply(a, b, BN254_P)
        assert multiplier.stats.iterations == (BN254_P.bit_length() + 1) // 2 == 127

    def test_no_full_additions_inside_the_loop(self, rng):
        """Only the single finalisation addition propagates carries."""
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(rng.randrange(65521), rng.randrange(65521), 65521)
        assert multiplier.stats.full_additions == 1
        assert multiplier.stats.carry_save_additions == 2 * multiplier.stats.iterations

    def test_two_lut_lookups_per_iteration(self, rng):
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(rng.randrange(65521), rng.randrange(65521), 65521)
        assert multiplier.stats.lut_lookups == 2 * multiplier.stats.iterations

    def test_lut_context_reused_for_same_multiplicand(self):
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(10, 77, 65521)
        multiplier.multiply(20, 77, 65521)
        assert multiplier.stats.precomputations == 1
        multiplier.multiply(20, 78, 65521)
        assert multiplier.stats.precomputations == 2

    def test_cycle_model_matches_paper(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.cycles(256) == 767
        assert multiplier.cycles(128) == 383
        assert multiplier.cycles(8) == 23

    def test_cycle_model_rejects_bad_bitwidth(self):
        with pytest.raises(OperandRangeError):
            R4CSALutMultiplier().cycles(0)

    def test_paper_mode_rejects_full_range_multiplier(self):
        multiplier = R4CSALutMultiplier(full_range=False)
        with pytest.raises(OperandRangeError):
            multiplier.multiply(SECP256K1_P - 1, 3, SECP256K1_P)


class TestTraceAndInvariants:
    def test_trace_records_every_iteration(self):
        multiplier = R4CSALutMultiplier(record_trace=True)
        multiplier.multiply(0b10101, 0b10010, 0b11001)
        assert len(multiplier.last_trace) == multiplier.stats.iterations
        assert [snap.iteration for snap in multiplier.last_trace] == list(
            range(len(multiplier.last_trace))
        )

    def test_overflow_index_stays_within_the_generated_lut(self, rng):
        multiplier = R4CSALutMultiplier(record_trace=True)
        for _ in range(20):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            multiplier.multiply(a, b, BN254_P)
            for snapshot in multiplier.last_trace:
                assert 0 <= snapshot.overflow_index < OVERFLOW_LUT_ENTRIES

    def test_overflow_index_matches_paper_table_2_range_in_practice(self, rng):
        """Empirically the 3-bit overflow field of Table 2 suffices."""
        multiplier = R4CSALutMultiplier(record_trace=True)
        for _ in range(20):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            multiplier.multiply(a, b, BN254_P)
            assert max(s.overflow_index for s in multiplier.last_trace) <= 7

    def test_redundant_accumulator_is_congruent_every_iteration(self, rng):
        """sum + carry + pending*2^w stays congruent to the running product."""
        modulus = 65521
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        multiplier = R4CSALutMultiplier(record_trace=True)
        multiplier.multiply(a, b, modulus)

        from repro.core.booth import booth_digits_radix4

        context = R4CSALutContext.create(b, modulus)
        digits = booth_digits_radix4(a, context.bitwidth, full_range=True)
        running = 0
        for snapshot, digit in zip(multiplier.last_trace, digits):
            running = (4 * running + digit * b) % modulus
            resolved = (
                snapshot.sum_word
                + snapshot.carry_word
                + (snapshot.pending_overflow << context.register_width)
            )
            assert resolved % modulus == running

    def test_context_exposes_both_luts(self):
        context = R4CSALutContext.create(77, 65521)
        assert context.radix4_lut[+2] == (2 * 77) % 65521
        assert len(context.overflow_lut) == OVERFLOW_LUT_ENTRIES
        assert context.register_width == 17


#: One RNG seed for the whole fuzz sweep — failures name their case.
FUZZ_SEED = 0xD1FF

#: Bit widths the randomized sweep covers (16 to 256 bits).
FUZZ_WIDTHS = (16, 24, 31, 32, 48, 61, 64, 96, 128, 192, 224, 254, 255, 256)

#: Random operand pairs per modulus, on top of the 0/1/p-1 products.
FUZZ_PAIRS = 24


def _random_odd_modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _adversarial_moduli() -> list:
    """Mersenne-adjacent and near-power-of-two moduli, odd and even."""
    moduli = []
    for k in (17, 31, 61, 89, 127, 255):
        moduli.extend([(1 << k) - 1, (1 << k) - 3, (1 << k) + 1])
    for k in (16, 32, 64, 128, 256):
        moduli.extend([(1 << k) - 1, (1 << k) + 1, (1 << k) - 2])
    for k in (20, 40, 80):  # even moduli: no Montgomery constants
        moduli.append((1 << k) - 4)
    return sorted({m for m in moduli if m > 2})


def _assert_matches_oracle(modulus: int, rng: random.Random) -> None:
    degenerate = [0, 1, modulus - 1]
    pairs = [(a, b) for a in degenerate for b in degenerate]
    pairs.extend(
        (rng.randrange(modulus), rng.randrange(modulus))
        for _ in range(FUZZ_PAIRS)
    )
    multiplier = R4CSALutMultiplier()
    multiplier.prepare(modulus)
    products = [multiplier._multiply(a, b, modulus) for a, b in pairs]
    assert products == [a * b % modulus for a, b in pairs], (
        f"r4csa-lut deviates at p={modulus:#x}"
    )


@pytest.mark.slow
class TestSeededFuzz:
    """Seeded differential fuzzing against the big-int oracle.

    The moduli are the ones most likely to break a reduction scheme:
    random odd moduli at every width from 16 to 256 bits; Mersenne-adjacent
    moduli (``2**k - 1`` and close neighbours), where ``p`` hugs the top
    of its bit width; near-power-of-two moduli (``2**k ± small``),
    including even ones; and the degenerate operands 0, 1 and ``p - 1``.
    Every case is seeded, so a failure reproduces exactly.
    """

    @pytest.mark.parametrize("bits", FUZZ_WIDTHS)
    def test_random_moduli_at_width(self, bits):
        rng = random.Random(FUZZ_SEED ^ bits)
        for _ in range(3):
            _assert_matches_oracle(_random_odd_modulus(rng, bits), rng)

    @pytest.mark.parametrize(
        "modulus", _adversarial_moduli(), ids=lambda m: f"{m.bit_length()}b"
    )
    def test_adversarial_moduli(self, modulus):
        _assert_matches_oracle(modulus, random.Random(FUZZ_SEED ^ modulus))
