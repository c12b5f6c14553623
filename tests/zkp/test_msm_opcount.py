"""Tests for multi-scalar multiplication and the Figure 7 operation models."""

from __future__ import annotations

import math
import random

import pytest

from repro.ecc import get_curve, scalar_multiply
from repro.engine import Engine
from repro.errors import OperandRangeError
from repro.zkp import (
    MsmStatistics,
    default_window_bits,
    msm_naive,
    msm_operation_counts,
    msm_pippenger,
    msm_point_additions,
    ntt_operation_counts,
)
from repro.zkp.opcount import (
    MULS_PER_DOUBLING,
    MULS_PER_GENERAL_ADDITION,
    MULS_PER_MIXED_ADDITION,
    PAPER_FIGURE7_BITWIDTH,
    PAPER_FIGURE7_VECTOR_SIZE,
)


def _sample_points(curve, rng, count):
    base = curve.generator
    return [
        scalar_multiply(curve, rng.randrange(3, 1 << 62), base) for _ in range(count)
    ]


class TestMsm:
    def test_naive_and_pippenger_agree(self, rng):
        curve = get_curve("secp256k1")
        points = _sample_points(curve, rng, 10)
        scalars = [rng.randrange(1, 1 << 48) for _ in range(10)]
        assert msm_naive(curve, scalars, points) == msm_pippenger(
            curve, scalars, points
        )

    def test_various_window_sizes_agree(self, rng):
        curve = get_curve("bn254")
        points = _sample_points(curve, rng, 8)
        scalars = [rng.randrange(1, 1 << 32) for _ in range(8)]
        reference = msm_naive(curve, scalars, points)
        for window in (2, 3, 5, 8):
            assert msm_pippenger(curve, scalars, points, window_bits=window) == reference

    def test_zero_scalars_yield_infinity(self, rng):
        curve = get_curve("secp256k1")
        points = _sample_points(curve, rng, 4)
        assert msm_pippenger(curve, [0, 0, 0, 0], points).is_infinity

    def test_empty_input(self):
        curve = get_curve("secp256k1")
        assert msm_pippenger(curve, [], []).is_infinity

    def test_single_pair_equals_scalar_multiplication(self, rng):
        curve = get_curve("secp256k1")
        point = _sample_points(curve, rng, 1)[0]
        scalar = rng.randrange(1, 1 << 62)
        assert msm_pippenger(curve, [scalar], [point]) == scalar_multiply(
            curve, scalar, point
        )

    def test_mismatched_lengths_rejected(self, rng):
        curve = get_curve("secp256k1")
        with pytest.raises(OperandRangeError):
            msm_pippenger(curve, [1, 2], _sample_points(curve, rng, 1))
        with pytest.raises(OperandRangeError):
            msm_naive(curve, [1, 2], _sample_points(curve, rng, 1))

    def test_negative_scalar_rejected(self, rng):
        curve = get_curve("secp256k1")
        with pytest.raises(OperandRangeError):
            msm_pippenger(curve, [-1], _sample_points(curve, rng, 1))

    def test_statistics_structure(self, rng):
        curve = get_curve("secp256k1")
        points = _sample_points(curve, rng, 16)
        scalars = [rng.randrange(1, 1 << 64) for _ in range(16)]
        stats = MsmStatistics()
        msm_pippenger(curve, scalars, points, window_bits=4, statistics=stats)
        assert stats.points == 16
        assert stats.window_bits == 4
        assert stats.windows == 16  # 64-bit scalars, 4-bit windows
        assert stats.doublings == stats.windows * 4
        assert stats.point_additions > 0

    @pytest.mark.parametrize("backend", ("schoolbook", "montgomery", "r4csa-lut"))
    def test_engine_curve_matches_the_default_curve(self, backend, rng):
        """The bucket method runs unchanged over an engine-backed field."""
        curve = get_curve("secp256k1")
        points = _sample_points(curve, rng, 6)
        scalars = [rng.randrange(1, 1 << 24) for _ in range(6)]
        expected = msm_pippenger(curve, scalars, points, window_bits=4)

        engine = Engine(backend=backend, curve="secp256k1")
        routed_curve = engine.curve()
        rebound = [routed_curve.affine_point(int(point.x), int(point.y)) for point in points]
        routed = msm_pippenger(routed_curve, scalars, rebound, window_bits=4)
        assert routed == expected
        assert engine.stats().multiplications > 0

    def test_infinity_and_repeated_points(self, rng):
        curve = get_curve("bn254")
        point = _sample_points(curve, rng, 1)[0]
        points = [
            point, curve.infinity(), point,
            curve.affine_point(int(point.x), -int(point.y)),
        ]
        scalars = [5, 9, 7, 3]
        result = msm_pippenger(curve, scalars, points, window_bits=2)
        assert result == msm_naive(curve, scalars, points)
        assert result == scalar_multiply(curve, 9, point)

    @pytest.mark.parametrize("window", (2, 3, 4))
    def test_digits_at_the_window_edges(self, window, rng):
        """Digits 0, 1, 2^c - 1 and a carry into the next window."""
        curve = get_curve("secp256k1")
        points = _sample_points(curve, rng, 4)
        top = (1 << window) - 1
        scalars = [top, 1 << window, (top << window) | top, 1]
        assert msm_pippenger(curve, scalars, points, window_bits=window) == msm_naive(
            curve, scalars, points
        )

    def test_default_window_grows_with_size(self):
        assert default_window_bits(2) == 2
        assert default_window_bits(1 << 10) == 9
        assert default_window_bits(1 << 15) == 14
        with pytest.raises(OperandRangeError):
            default_window_bits(0)


class TestOperationCountModels:
    def test_ntt_model_matches_instrumented_run(self):
        """The closed-form NTT counts equal the instrumented implementation."""
        engine = Engine(backend="schoolbook", curve="bn254")
        for size in (256, 512):
            context = engine.ntt(size)
            rng = random.Random(size)
            context.forward([rng.randrange(context.modulus) for _ in range(size)])
            counter = context.counter
            model = ntt_operation_counts(vector_size=size, bitwidth=254)
            assert counter.count("modmul") == model.modular_multiplications
            assert counter.count("memory_access") == model.memory_accesses
            assert counter.count("register_write") == model.register_writes

    def test_msm_model_brackets_instrumented_run(self, rng):
        """The closed-form MSM multiplication count tracks the measured count.

        The model assumes every input point lands in a non-empty bucket and
        every bucket is populated; at small sizes some buckets stay empty, so
        the model must be an upper bound but within a small factor.
        """
        curve = get_curve("secp256k1")
        size, window = 64, 4
        points = _sample_points(curve, rng, size)
        scalars = [rng.randrange(1, 1 << 256) % curve.field.modulus for _ in range(size)]
        curve.field.counter.reset()
        msm_pippenger(curve, scalars, points, window_bits=window)
        measured = curve.field.counter.count("modmul")
        model = msm_operation_counts(size, 256, window_bits=window)
        assert measured <= model.modular_multiplications
        assert model.modular_multiplications < 3 * measured

    def test_ntt_paper_operating_point(self):
        counts = ntt_operation_counts()
        assert counts.vector_size == PAPER_FIGURE7_VECTOR_SIZE
        assert counts.modular_multiplications == (2**15 // 2) * 15
        assert counts.memory_accesses == 5 * counts.modular_multiplications
        # Figure 7 scale: NTT sits in the 1e5 - 1e7 decade band.
        assert 1e5 < counts.modular_multiplications < 1e6
        assert 1e6 < counts.memory_accesses < 1e7

    def test_msm_paper_operating_point(self):
        counts = msm_operation_counts()
        assert counts.bitwidth == PAPER_FIGURE7_BITWIDTH
        # Figure 7 scale: MSM is orders of magnitude above NTT.
        ntt = ntt_operation_counts()
        assert counts.modular_multiplications > 50 * ntt.modular_multiplications
        assert 1e7 < counts.modular_multiplications < 1e8
        assert 1e8 < counts.memory_accesses < 1e9
        assert 1e8 < counts.register_writes < 1e9

    def test_msm_structure_formula(self):
        structure = msm_point_additions(2**15, 256, 16)
        assert structure["windows"] == 16
        assert structure["buckets_per_window"] == 2**16 - 1
        assert structure["mixed_additions"] == 16 * 2**15

    def test_msm_modmul_composition(self):
        structure = msm_point_additions(1024, 256, 8)
        counts = msm_operation_counts(1024, 256, window_bits=8)
        expected = (
            structure["mixed_additions"] * MULS_PER_MIXED_ADDITION
            + structure["general_additions"] * MULS_PER_GENERAL_ADDITION
            + structure["doublings"] * MULS_PER_DOUBLING
        )
        assert counts.modular_multiplications == expected

    def test_as_dict_keys_match_figure_labels(self):
        counts = ntt_operation_counts(1024, 256)
        assert set(counts.as_dict()) == {
            "modular_multiplication",
            "memory_access",
            "register_writes",
        }

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            ntt_operation_counts(1000, 256)
        with pytest.raises(OperandRangeError):
            ntt_operation_counts(1024, 0)
        with pytest.raises(OperandRangeError):
            msm_operation_counts(0, 256)
        with pytest.raises(OperandRangeError):
            msm_operation_counts(1024, 256, window_bits=0)
