"""Tests for the unified Engine facade: parity, caching, batching."""

from __future__ import annotations

import random

import pytest

from repro.ecc import CURVE_SPECS, PrimeField, get_curve
from repro.ecc.scalar import scalar_multiply
from repro.engine import Engine, available_backends
from repro.errors import ConfigurationError, ModulusError, OperandRangeError
from repro.zkp.ntt import NttContext

BN254_P = CURVE_SPECS["bn254"].field_modulus
BN254_R = CURVE_SPECS["bn254"].scalar_field_modulus
SECP256K1_P = CURVE_SPECS["secp256k1"].field_modulus

#: Backends cheap enough to exercise at every small modulus.
ALL_BACKENDS = tuple(available_backends())


class TestBackendParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_all_backends_agree_with_the_oracle(self, backend):
        modulus = 997
        engine = Engine(backend=backend, modulus=modulus)
        rng = random.Random(backend)  # str seeds are stable across processes
        for _ in range(8):
            a = rng.randrange(modulus)
            b = rng.randrange(modulus)
            assert int(engine.multiply(a, b)) == (a * b) % modulus

    @pytest.mark.parametrize("bits", (32, 128, 254))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_agrees_at_width(self, backend, bits):
        rng = random.Random(f"{backend}:{bits}")
        modulus = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
        engine = Engine(backend=backend, modulus=modulus)
        pairs = [(modulus - 1, modulus - 1)] + [
            (rng.randrange(modulus), rng.randrange(modulus)) for _ in range(2)
        ]
        assert [int(engine.multiply(a, b)) for a, b in pairs] == [
            a * b % modulus for a, b in pairs
        ]

    @pytest.mark.parametrize("backend", ("r4csa-lut", "montgomery", "barrett"))
    def test_256_bit_parity(self, backend, bn254_modulus, rng):
        engine = Engine(backend=backend, curve="bn254")
        a = rng.randrange(bn254_modulus)
        b = rng.randrange(bn254_modulus)
        assert int(engine.multiply(a, b)) == (a * b) % bn254_modulus

    def test_result_metadata(self):
        engine = Engine(backend="r4csa-lut", modulus=997)
        result = engine.multiply(5, 7)
        assert result.backend == "r4csa-lut"
        assert result.modulus == 997
        assert result.bitwidth == 10
        assert result.modeled_cycles == 6 * 5 - 1
        assert not result.cache_hit
        assert engine.multiply(5, 7).cache_hit

    def test_result_behaves_like_an_int(self):
        result = Engine(backend="schoolbook", modulus=97).multiply(5, 7)
        assert int(result) == 35
        assert result == 35
        assert hex(result) == "0x23"
        # hash/eq invariant with the int it compares equal to
        assert hash(result) == hash(35)
        assert result in {35} and 35 in {result}


class TestContextCaching:
    def test_cache_hit_miss_accounting(self):
        engine = Engine(backend="barrett", modulus=997)
        engine.multiply(1, 2)
        engine.multiply(3, 4)
        engine.multiply(3, 4, modulus=97)
        assert engine.cache_stats.misses == 2
        assert engine.cache_stats.hits == 1
        assert len(engine._cache.contexts()) == 2

    def test_eviction_preserves_aggregate_stats(self):
        engine = Engine(backend="montgomery", cache_size=1)
        engine.multiply(5, 7, modulus=97)
        engine.multiply(5, 7, modulus=101)  # evicts the 97 context
        assert [context.modulus for context in engine._cache.contexts()] == [101]
        stats = engine.stats()
        assert stats.multiplications == 2
        assert stats.precomputations == 2

    def test_no_default_modulus_is_an_error(self):
        engine = Engine(backend="schoolbook")
        with pytest.raises(ModulusError, match="no modulus"):
            engine.multiply(1, 2)

    def test_unknown_curve_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown curve"):
            Engine(curve="curve25519")



class TestBatch:
    def test_batch_equals_per_call_loop(self, rng):
        engine = Engine(backend="montgomery", modulus=997)
        pairs = [(rng.randrange(997), rng.randrange(997)) for _ in range(32)]
        batch = engine.multiply_batch(pairs)
        loop = [int(engine.multiply(a, b)) for a, b in pairs]
        assert list(batch.values) == loop
        assert batch.count == 32

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_batches_like_its_per_call_path(self, backend):
        # One batch loop serves every backend: it validates once and then
        # calls the multiplier's algorithm body directly.  Products,
        # operation counters and modeled cycles must match per-call use.
        modulus = 997
        rng = random.Random(f"batch:{backend}")
        pairs = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in range(8)]
        pairs += [(0, modulus - 1), (1, modulus - 1), (modulus - 1, modulus - 1)]
        batch_engine = Engine(backend=backend, modulus=modulus)
        loop_engine = Engine(backend=backend, modulus=modulus)

        batch = batch_engine.multiply_batch(pairs)
        loop = [loop_engine.multiply(a, b) for a, b in pairs]

        assert list(batch.values) == [int(result) for result in loop]
        assert list(batch.values) == [(a * b) % modulus for a, b in pairs]
        assert batch.stats.multiplications == len(pairs)
        assert (
            batch_engine.stats().operations.as_dict()
            == loop_engine.stats().operations.as_dict()
        )
        per_call = loop[0].modeled_cycles
        expected_cycles = None if per_call is None else per_call * len(pairs)
        assert batch.modeled_cycles == expected_cycles

    @pytest.mark.parametrize("backend", ("montgomery", "barrett"))
    def test_precomputation_does_not_grow_with_batch_size(self, backend, rng):
        engine = Engine(backend=backend, curve="bn254")
        modulus = engine.default_modulus
        for size in (8, 64):
            pairs = [
                (rng.randrange(modulus), rng.randrange(modulus))
                for _ in range(size)
            ]
            batch = engine.multiply_batch(pairs)
            # The per-modulus context was built when it entered the cache;
            # no batch, whatever its size, rebuilds it.
            assert batch.stats.precomputations == 0
            assert batch.stats.multiplications == size
        assert engine.stats().precomputations == 1

    def test_r4csa_lut_shared_multiplicand_batch_reuses_luts(self, rng):
        engine = Engine(backend="r4csa-lut", modulus=BN254_P)
        b = rng.randrange(BN254_P)
        for size in (4, 16):
            pairs = [(rng.randrange(BN254_P), b) for _ in range(size)]
            batch = engine.multiply_batch(pairs)
            assert list(batch.values) == [(a * b) % BN254_P for a, _ in pairs]
            assert batch.stats.multiplications == size
        # One (B, p) LUT build serves both batches.
        assert engine.stats().precomputations == 1
        assert engine.cache_stats.misses == 1

    def test_batch_validates_operands(self):
        engine = Engine(backend="schoolbook", modulus=97)
        with pytest.raises(OperandRangeError):
            engine.multiply_batch([(5, 97)])
        with pytest.raises(OperandRangeError):
            engine.multiply_batch([(-1, 5)])

    def test_batch_modeled_cycles_scale_with_count(self):
        engine = Engine(backend="r4csa-lut", modulus=997)
        batch = engine.multiply_batch([(1, 2), (3, 4), (5, 6)])
        assert batch.modeled_cycles == 3 * (6 * 5 - 1)

    def test_batch_accepts_generators(self):
        engine = Engine(backend="schoolbook", modulus=97)
        batch = engine.multiply_batch((a, a) for a in range(5))
        assert list(batch.values) == [a * a % 97 for a in range(5)]

    def test_empty_batch(self):
        engine = Engine(backend="schoolbook", modulus=97)
        batch = engine.multiply_batch([])
        assert batch.count == 0
        assert list(batch.values) == []


class TestApplicationSubstrates:
    def test_field_shares_the_cached_context(self):
        engine = Engine(backend="montgomery", modulus=997)
        field = engine.field()
        assert field is engine.field()  # cached per context
        assert field.multiplier is engine.context().multiplier
        assert field.multiply(5, 7) == 35

    def test_engine_curve_scalar_mult_matches_direct_wiring(self):
        # Old wiring: hand-built field with an explicit backend.
        from repro.core import R4CSALutMultiplier

        scalar = 0xBEEF
        direct_curve = get_curve(
            "secp256k1",
            field=PrimeField(SECP256K1_P, multiplier=R4CSALutMultiplier()),
        )
        direct = scalar_multiply(direct_curve, scalar, direct_curve.generator)

        engine = Engine(backend="r4csa-lut", curve="secp256k1")
        engine_curve = engine.curve()
        routed = scalar_multiply(engine_curve, scalar, engine_curve.generator)
        assert routed == direct
        # The multiplications actually went through the engine's context.
        assert engine.stats().multiplications > 0

    def test_engine_ntt_matches_direct_wiring(self, rng):
        size = 16
        values = [rng.randrange(BN254_R) for _ in range(size)]
        direct = NttContext(BN254_R, size).forward(values)

        engine = Engine(backend="r4csa-lut", curve="bn254")
        context = engine.ntt(size)
        assert context is engine.ntt(size)  # cached per context
        assert context.modulus == BN254_R  # scalar field, not base field
        routed = context.forward(values)
        assert routed == direct
        assert context.inverse(routed) == [value % BN254_R for value in values]
        assert engine.stats().multiplications > 0

    def test_curve_requires_a_name_somewhere(self):
        with pytest.raises(ConfigurationError, match="no curve name"):
            Engine(backend="schoolbook").curve()



class TestResultSerialization:
    """``as_dict()`` of MultiplyResult/BatchResult survives a JSON round trip."""

    def test_multiply_result_round_trip(self):
        import json

        engine = Engine(backend="r4csa-lut", curve="bn254")
        result = engine.multiply(12345, 67890)
        loaded = json.loads(json.dumps(result.as_dict()))
        assert loaded == result.as_dict()
        assert loaded["value"] == int(result)
        assert loaded["value_hex"] == hex(int(result))
        assert loaded["backend"] == result.backend
        assert loaded["modulus"] == result.modulus
        assert loaded["bitwidth"] == result.bitwidth
        assert loaded["modeled_cycles"] == result.modeled_cycles
        assert loaded["cache_hit"] == result.cache_hit

    def test_batch_result_round_trip_preserves_stats(self):
        import json

        engine = Engine(backend="r4csa-lut", curve="bn254")
        result = engine.multiply_batch([(3, 5), (7, 11), (13, 17)])
        loaded = json.loads(json.dumps(result.as_dict()))
        assert loaded == result.as_dict()
        assert loaded["values"] == list(result.values)
        assert loaded["count"] == 3
        assert loaded["modeled_cycles"] == result.modeled_cycles
        assert loaded["stats"] == result.stats.as_dict()

    def test_multiply_result_without_cycle_model(self):
        import json

        engine = Engine(backend="schoolbook", modulus=97)
        result = engine.multiply(5, 9)
        assert result.modeled_cycles is None
        loaded = json.loads(json.dumps(result.as_dict()))
        assert loaded["modeled_cycles"] is None
