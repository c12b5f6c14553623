"""Tests for the fidelity-tier engine backends (modsram-fast / modsram-chip)."""

from __future__ import annotations

import pytest

from repro.engine import (
    Engine,
    MultiplierBackend,
    available_backends,
    get_backend,
)
from repro.errors import ConfigurationError
from repro.modsram import ModSRAMChipMultiplier, ModSRAMConfig


class TestRegistry:
    def test_tier_backends_are_registered(self):
        backends = available_backends()
        assert "modsram" in backends
        assert "modsram-fast" in backends
        assert "modsram-chip" in backends

    def test_capability_metadata(self):
        cycle = get_backend("modsram").info
        fast = get_backend("modsram-fast").info
        chip = get_backend("modsram-chip").info
        assert cycle.fidelity == "cycle" and cycle.macros is None
        assert fast.fidelity == "analytical" and fast.macros is None
        assert chip.fidelity == "analytical" and chip.macros == 4
        for info in (cycle, fast, chip):
            assert info.kind == "accelerator"
            assert info.has_cycle_model
            payload = info.as_dict()
            assert payload["fidelity"] == info.fidelity
            assert payload["macros"] == info.macros
        # The simulator each adapter builds runs the tier its backend lists.
        for name in ("modsram", "modsram-fast", "modsram-chip", "modsram-hdl"):
            backend = get_backend(name)
            multiplier = backend.create_context(65521).multiplier
            assert multiplier.simulator_for(65521).tier == backend.info.fidelity

    def test_software_backends_have_no_tier_metadata(self):
        info = get_backend("montgomery").info
        assert info.fidelity is None and info.macros is None

    def test_chip_backend_macro_config(self):
        backend = MultiplierBackend("modsram-chip", macros=8)
        assert backend.info.macros == 8
        context = backend.create_context(65521)
        assert isinstance(context.multiplier, ModSRAMChipMultiplier)
        assert context.multiplier.macros == 8

    def test_invalid_tier_configurations_are_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiplierBackend("modsram-chip", macros=0)


class TestHdlBackend:
    """The RTL co-simulation tier behind the Engine facade."""

    MODULUS = 65521

    def test_registered_with_hdl_fidelity(self):
        assert "modsram-hdl" in available_backends()
        info = get_backend("modsram-hdl").info
        assert info.fidelity == "hdl"
        assert info.kind == "accelerator"
        assert info.has_cycle_model
        assert info.as_dict()["fidelity"] == "hdl"

    def test_products_and_modeled_cycles_match_cycle_backend(self, rng):
        hdl = Engine(backend="modsram-hdl", modulus=self.MODULUS)
        cycle = Engine(backend="modsram", modulus=self.MODULUS)
        for _ in range(2):
            a, b = rng.randrange(self.MODULUS), rng.randrange(self.MODULUS)
            hdl_result = hdl.multiply(a, b)
            cycle_result = cycle.multiply(a, b)
            assert hdl_result.value == cycle_result.value == a * b % self.MODULUS
            assert hdl_result.modeled_cycles == cycle_result.modeled_cycles


class TestParityWithSingleMacro:
    """Acceptance: new backends agree with the single-macro modsram path."""

    MODULUS = 65521

    def pairs(self, rng, count=6):
        return [
            (rng.randrange(self.MODULUS), rng.randrange(self.MODULUS))
            for _ in range(count)
        ]

    def test_fast_backend_matches_cycle_backend(self, rng):
        pairs = self.pairs(rng)
        cycle = Engine(backend="modsram", modulus=self.MODULUS)
        fast = Engine(backend="modsram-fast", modulus=self.MODULUS)
        assert list(fast.multiply_batch(pairs).values) == list(
            cycle.multiply_batch(pairs).values
        )

    def test_chip_backend_matches_cycle_backend(self, rng):
        pairs = self.pairs(rng)
        cycle = Engine(backend="modsram", modulus=self.MODULUS)
        chip = Engine(backend="modsram-chip", modulus=self.MODULUS)
        assert list(chip.multiply_batch(pairs).values) == list(
            cycle.multiply_batch(pairs).values
        )

    def test_modeled_cycles_match_across_tiers(self):
        cycle, fast, chip = (
            get_backend(name).create_context(self.MODULUS).modeled_cycles_per_multiply
            for name in ("modsram", "modsram-fast", "modsram-chip")
        )
        assert cycle == fast == chip
        assert cycle == ModSRAMConfig().with_bitwidth(16).expected_iteration_cycles

    def test_fast_backend_on_bn254(self, rng, bn254_modulus):
        fast = Engine(backend="modsram-fast", curve="bn254")
        oracle = Engine(backend="schoolbook", curve="bn254")
        pairs = [
            (rng.randrange(bn254_modulus), rng.randrange(bn254_modulus))
            for _ in range(4)
        ]
        assert list(fast.multiply_batch(pairs).values) == list(
            oracle.multiply_batch(pairs).values
        )


class TestChipEngineIntegration:
    def test_chip_activity_reachable_through_the_context(self, rng):
        engine = Engine(backend="modsram-chip", modulus=65521)
        pairs = [(rng.randrange(65521), 7) for _ in range(8)]
        engine.multiply_batch(pairs)
        activity = engine.context().multiplier.activity()
        assert activity.jobs == 8
        assert activity.macros == 4
        assert activity.makespan_cycles > 0

    def test_batch_modeled_cycles_scale_with_batch_size(self, rng):
        engine = Engine(backend="modsram-chip", modulus=65521)
        pairs = [(rng.randrange(65521), rng.randrange(65521)) for _ in range(5)]
        batch = engine.multiply_batch(pairs)
        per_call = engine.context().modeled_cycles_per_multiply
        assert batch.modeled_cycles == per_call * len(pairs)

    def test_engine_accepts_backend_instances_with_custom_macros(self, rng):
        engine = Engine(
            backend=MultiplierBackend("modsram-chip", macros=2), modulus=65521
        )
        result = engine.multiply(123, 456)
        assert int(result) == (123 * 456) % 65521
        assert engine.info.macros == 2
