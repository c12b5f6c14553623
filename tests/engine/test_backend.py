"""Tests for the backend protocol and registry behind the Engine API."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import available_multipliers, get_multiplier
from repro.engine import (
    BackendInfo,
    EngineContext,
    MultiplierBackend,
    available_backends,
    get_backend,
)
from repro.errors import ConfigurationError, ModulusError


class TestRegistry:
    def test_every_multiplier_is_a_backend(self):
        assert available_backends() == available_multipliers()
        assert len(available_backends()) == 11

    def test_unknown_backend_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("nonexistent")

    def test_each_backend_is_built_once(self):
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, MultiplierBackend)
            assert get_backend(name) is backend


class TestBackendInfo:
    def test_software_backend_metadata(self):
        info = get_backend("r4csa-lut").info
        assert isinstance(info, BackendInfo)
        assert info.kind == "software"
        assert info.has_cycle_model
        assert info.direct_form

    def test_schoolbook_has_no_cycle_model(self):
        info = get_backend("schoolbook").info
        assert not info.has_cycle_model
        context = get_backend("schoolbook").create_context(97)
        assert context.modeled_cycles_per_multiply is None

    def test_montgomery_is_not_direct_form(self):
        assert not get_backend("montgomery").info.direct_form

    def test_accelerator_backend_metadata(self):
        info = get_backend("modsram").info
        assert info.kind == "accelerator"
        assert info.has_cycle_model

    def test_as_dict_is_json_friendly(self):
        payload = get_backend("modsram-chip").info.as_dict()
        assert list(payload) == [
            "name", "description", "kind", "has_cycle_model", "direct_form",
            "fidelity", "macros",
        ]
        assert payload["name"] == "modsram-chip"
        assert payload["macros"] == 4


class TestContextCreation:
    def test_context_carries_modulus_and_bitwidth(self):
        context = get_backend("barrett").create_context(997)
        assert isinstance(context, EngineContext)
        assert context.modulus == 997
        assert context.bitwidth == 10

    def test_context_is_warmed_at_creation(self):
        # Montgomery constants are derived by prepare(), before any multiply.
        context = get_backend("montgomery").create_context(997)
        assert context.stats.precomputations == 1
        context.multiplier.multiply(5, 7, context.modulus)
        assert context.stats.precomputations == 1

    def test_invalid_modulus_is_rejected(self):
        with pytest.raises(ModulusError):
            get_backend("schoolbook").create_context(2)

    def test_contexts_are_independent_per_modulus(self):
        backend = get_backend("barrett")
        first = backend.create_context(97)
        second = backend.create_context(101)
        assert first.multiplier is not second.multiplier

    def test_multiplier_backend_cycle_model(self):
        context = MultiplierBackend("r4csa-lut").create_context((1 << 255) + 95)
        assert context.bitwidth == 256
        assert context.modeled_cycles_per_multiply == 6 * 128 - 1

    def test_modsram_backend_reports(self):
        backend = MultiplierBackend("modsram")
        context = backend.create_context((1 << 16) - 15)
        product = context.multiplier.multiply(1234, 4321, context.modulus)
        assert product == (1234 * 4321) % ((1 << 16) - 15)
        # cycle reports stay reachable
        assert context.multiplier.last_report is not None


@pytest.mark.parametrize("name", available_multipliers())
class TestEveryRegisteredMultiplier:
    """Each registered multiplier is one backend whose metadata it sets."""

    MODULUS = 65521

    def test_info_follows_the_multiplier(self, name):
        probe = get_multiplier(name)()
        tier = getattr(probe, "tier", None)
        info = get_backend(name).info
        assert info.name == name
        assert info.kind == ("software" if tier is None else "accelerator")
        assert info.fidelity == tier
        assert info.macros == getattr(probe, "macros", None)
        assert info.direct_form == probe.direct_form
        assert info.has_cycle_model == (probe.cycles(256) is not None)

    def test_context_resolves_the_cycle_model_once(self, name):
        context = get_backend(name).create_context(self.MODULUS)
        assert context.info is get_backend(name).info
        assert context.bitwidth == 16
        assert context.modeled_cycles_per_multiply == context.multiplier.cycles(16)

    def test_backends_json_row_is_the_info(self, name, capsys):
        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["backends"]
        by_name = {row["name"]: row for row in rows}
        assert by_name[name] == get_backend(name).info.as_dict()
