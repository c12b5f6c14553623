"""The serving default (``EngineSpec().backend``) through the engine.

Pool shards, fleet workers, ``Server`` and the self-test all build their
engines from the default spec, so the backend it names must be exact at
every modulus they may meet, and bit-identical to the paper's R4CSA-LUT
backend, which the same stack serves when a caller names it.
"""

from __future__ import annotations

import pickle
import random
import threading

import pytest

from repro.ecc import CURVE_SPECS
from repro.engine import Engine, EngineSpec, available_backends, get_backend
from repro.engine.backend import BackendInfo
from repro.errors import ConfigurationError, ModulusError

#: Small primes, the largest 16-bit prime, a Mersenne prime and two curve fields.
MODULI = {
    "97": 97,
    "101": 101,
    "251": 251,
    "997": 997,
    "65521": 65521,
    "mersenne61": (1 << 61) - 1,
    "bn254": CURVE_SPECS["bn254"].field_modulus,
    "secp256k1": CURVE_SPECS["secp256k1"].field_modulus,
}

#: Bit widths of the engine-level parity slice.  The full seeded sweep
#: (three moduli per width plus adversarial moduli) is the ``slow``
#: ``tests/core/test_r4csa_lut.py::TestSeededFuzz``.
WIDTHS = (16, 24, 31, 32, 48, 61, 64, 96, 128, 192, 224, 254, 255, 256)


def _edge_and_random_pairs(modulus: int, rng: random.Random, count: int = 16):
    edges = [0, 1, 2, modulus - 2, modulus - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs.extend(
        (rng.randrange(modulus), rng.randrange(modulus)) for _ in range(count)
    )
    return pairs


class TestExactness:
    @pytest.mark.parametrize("name", sorted(MODULI))
    def test_every_entry_point_is_exact(self, name):
        modulus = MODULI[name]
        engine = EngineSpec(modulus=modulus).build()
        pairs = _edge_and_random_pairs(modulus, random.Random(f"default:{name}"))
        expected = [(a * b) % modulus for a, b in pairs]

        assert list(engine.multiply_batch(pairs).values) == expected
        assert [int(engine.multiply(a, b)) for a, b in pairs] == expected
        context = engine.context()
        assert [
            context.multiplier.multiply(a, b, context.modulus) for a, b in pairs
        ] == expected

    @pytest.mark.parametrize("modulus", (-7, 0, 1, 2))
    def test_rejects_degenerate_moduli(self, modulus):
        engine = EngineSpec(modulus=modulus).build()
        with pytest.raises(ModulusError):
            engine.multiply_batch([(0, 0)])


class TestParityWithR4CSALut:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_batches_match_at_width(self, bits):
        rng = random.Random(0xD1FF ^ bits)
        modulus = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
        pairs = _edge_and_random_pairs(modulus, rng, count=8)

        served = EngineSpec(modulus=modulus).build().multiply_batch(pairs)
        paper = Engine(backend="r4csa-lut", modulus=modulus).multiply_batch(pairs)

        assert served.values == paper.values
        assert list(served.values) == [(a * b) % modulus for a, b in pairs]


class TestRegistry:
    def test_no_compiled_backend_remains(self):
        assert "compiled" not in available_backends()
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("compiled")
        message = str(excinfo.value)
        for name in ("schoolbook", "r4csa-lut"):
            assert name in message

    def test_backend_metadata_fields(self):
        fields = {
            "name",
            "description",
            "kind",
            "has_cycle_model",
            "direct_form",
            "fidelity",
            "macros",
        }
        assert set(BackendInfo.__dataclass_fields__) == fields
        for name in available_backends():
            assert set(get_backend(name).info.as_dict()) == fields

    def test_default_spec_round_trips_and_rebuilds(self):
        spec = EngineSpec()
        assert EngineSpec.from_dict(spec.as_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        engine = spec.build()
        assert engine.info.name == spec.backend
        assert engine.spec() == spec


class TestConcurrentFirstUse:
    def test_racing_batches_build_one_context(self):
        modulus = MODULI["bn254"]
        engine = EngineSpec(modulus=modulus).build()
        barrier = threading.Barrier(8)
        failures = []

        def work(index: int) -> None:
            rng = random.Random(index)
            pairs = [
                (rng.randrange(modulus), rng.randrange(modulus))
                for _ in range(16)
            ]
            barrier.wait()  # every thread asks for the cold context at once
            result = engine.multiply_batch(pairs)
            if list(result.values) != [(a * b) % modulus for a, b in pairs]:
                failures.append(index)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert engine.cache_stats.misses == 1
        assert len(engine._cache.contexts()) == 1
        assert engine.stats().multiplications == 8 * 16
