"""Tests for EngineSpec: the portable engine re-construction recipe."""

from __future__ import annotations

import inspect
import os
import pickle
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.engine import Engine, EngineSpec, MultiplierBackend
from repro.errors import ConfigurationError

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


class TestEngineSpec:
    def test_build_reconstructs_an_equivalent_engine(self):
        spec = EngineSpec(backend="montgomery", curve="bn254", cache_size=8)
        engine = spec.build()
        assert engine.info.name == "montgomery"
        assert engine.default_modulus is not None
        twin = spec.build()
        assert int(engine.multiply(12345, 67890)) == int(
            twin.multiply(12345, 67890)
        )
        # Independent runtime state: warming one leaves the other cold.
        assert twin.cache_stats.misses == 1 and engine.cache_stats.misses == 1
        assert engine.context() is not twin.context()

    def test_round_trips_through_dict_and_pickle(self):
        spec = EngineSpec(
            backend="r4csa-lut", curve=None, modulus=997, cache_size=4
        )
        assert EngineSpec.from_dict(spec.as_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert EngineSpec.from_dict(
            {"backend": "schoolbook"}
        ) == EngineSpec(backend="schoolbook")

    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            EngineSpec(backend="not-a-backend").validate()

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(backend="")
        with pytest.raises(ConfigurationError):
            EngineSpec(backend="montgomery", cache_size=0)


class TestEngineSpecDerivation:
    def test_engine_spec_round_trip(self):
        engine = Engine(backend="barrett", curve="p256", cache_size=16)
        spec = engine.spec()
        assert spec == EngineSpec(
            backend="barrett",
            curve="p256",
            modulus=engine.default_modulus,
            cache_size=16,
        )
        assert spec.build().default_modulus == engine.default_modulus

    def test_explicit_modulus_survives(self):
        engine = Engine(backend="montgomery", modulus=65521)
        assert engine.spec().modulus == 65521

    def test_unregistered_backend_instance_has_no_spec(self):
        engine = Engine(backend=MultiplierBackend("montgomery"))
        with pytest.raises(ConfigurationError, match="unregistered instance"):
            engine.spec()


class TestServingDefault:
    def test_default_backend_is_schoolbook(self):
        assert EngineSpec().backend == "schoolbook"
        assert EngineSpec().build().info.name == "schoolbook"

    def test_serving_entry_points_take_the_spec_default(self):
        from repro.analysis.serving import reproduce_serving_throughput
        from repro.experiments import get_experiment
        from repro.service import Server
        from repro.service.selftest import self_test

        default = EngineSpec().backend
        assert Server().engine.info.name == default
        for entry in (self_test, reproduce_serving_throughput):
            assert inspect.signature(entry).parameters["backend"].default == (
                default
            )
        experiment = get_experiment("serving-throughput")
        assert experiment.defaults["backend"] == default
        # 'repro serve' runs this experiment, so it resolves the same default.
        for quick in (False, True):
            assert experiment.resolve_params(quick=quick)["backend"] == default
        parser = build_parser()
        for argv in (["submit"], ["cluster", "router"]):
            assert parser.parse_args(argv).backend == default
        # The arithmetic verbs report the paper's modeled cycles instead.
        assert parser.parse_args(["batch"]).backend == "r4csa-lut"

    def test_default_engine_imports_only_the_standard_library(self):
        """Every shard, node and engine process builds this spec.

        A third-party import on that path (a numpy probe, say) costs each
        of those processes its resident memory, so building the default
        engine and running one batch must load nothing but the standard
        library and ``repro``.
        """
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from repro.engine import EngineSpec\n"
            "EngineSpec().build().multiply_batch([(3, 5)], 97)\n"
            "print(' '.join(set(sys.modules) - before))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        loaded = {name.partition(".")[0] for name in completed.stdout.split()}
        assert "repro" in loaded
        foreign = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
        assert not foreign, f"default engine imported {foreign}"
