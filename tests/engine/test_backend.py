"""Tests for the backend protocol and registry behind the Engine API."""

from __future__ import annotations

import pytest

from repro.core import available_multipliers
from repro.engine import (
    BackendInfo,
    EngineContext,
    MultiplierBackend,
    PimBaselineBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.errors import ConfigurationError, ModulusError


class TestRegistry:
    def test_every_multiplier_is_a_backend(self):
        backends = available_backends()
        for name in available_multipliers():
            assert name in backends

    def test_pim_baselines_are_registered_under_aliases(self):
        backends = available_backends()
        for alias in ("pim-mentt", "pim-bpntt", "pim-rm-ntt", "pim-cryptopim"):
            assert alias in backends

    def test_unknown_backend_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("nonexistent")

    def test_register_rejects_duplicates(self):
        backend = get_backend("schoolbook")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(backend)

    def test_register_replace_is_idempotent(self):
        backend = get_backend("schoolbook")
        assert register_backend(backend, replace=True) is backend


class TestBackendInfo:
    def test_software_backend_metadata(self):
        info = get_backend("r4csa-lut").info
        assert isinstance(info, BackendInfo)
        assert info.kind == "software"
        assert info.has_cycle_model
        assert info.direct_form
        assert info.supported_bitwidths is None

    def test_schoolbook_has_no_cycle_model(self):
        info = get_backend("schoolbook").info
        assert not info.has_cycle_model
        assert get_backend("schoolbook").modeled_cycles(256) is None

    def test_montgomery_is_not_direct_form(self):
        assert not get_backend("montgomery").info.direct_form

    def test_accelerator_backend_metadata(self):
        info = get_backend("modsram").info
        assert info.kind == "accelerator"
        assert info.has_cycle_model

    def test_pim_baseline_metadata(self):
        backend = get_backend("pim-mentt")
        assert isinstance(backend, PimBaselineBackend)
        info = backend.info
        assert info.kind == "pim-baseline"
        assert info.supported_bitwidths is not None
        assert backend.modeled_cycles(256) == backend.design.cycles(256)

    def test_as_dict_is_json_friendly(self):
        payload = get_backend("pim-bpntt").info.as_dict()
        assert payload["name"] == "pim-bpntt"
        assert isinstance(payload["supported_bitwidths"], list)


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
        context.multiply(5, 7)
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
        backend = MultiplierBackend("r4csa-lut")
        assert backend.modeled_cycles(256) == 6 * 128 - 1

    def test_modsram_backend_reports(self):
        backend = MultiplierBackend("modsram")
        context = backend.create_context((1 << 16) - 15)
        product = context.multiply(1234, 4321)
        assert product == (1234 * 4321) % ((1 << 16) - 15)
        # cycle reports stay reachable
        assert context.multiplier.last_report is not None
