"""Tests for the cycle-accurate tier's opt-in per-cycle trace."""

from __future__ import annotations

import repro.modsram.accelerator as accelerator_module
from repro.modsram import CycleEvent, ModSRAMAccelerator, ModSRAMConfig


def small_config(bitwidth: int = 8) -> ModSRAMConfig:
    return ModSRAMConfig(extend_for_full_range=False).with_bitwidth(bitwidth)


class CountingEventFactory:
    """Stand-in for CycleEvent that counts constructions."""

    def __init__(self):
        self.constructed = 0

    def __call__(self, *args, **kwargs):
        self.constructed += 1
        return CycleEvent(*args, **kwargs)


class TestDefaultRunAllocatesNothing:
    def test_no_cycle_events_constructed_without_a_sink(self, monkeypatch):
        """The default run materialises zero events."""
        factory = CountingEventFactory()
        monkeypatch.setattr(accelerator_module, "CycleEvent", factory)
        accelerator = ModSRAMAccelerator(small_config())
        result = accelerator.multiply(0x2A, 0x51, 0xF1)
        assert result.product == (0x2A * 0x51) % 0xF1
        assert factory.constructed == 0
        assert len(result.trace) == 0

    def test_every_cycle_constructed_with_a_sink(self, monkeypatch):
        factory = CountingEventFactory()
        monkeypatch.setattr(accelerator_module, "CycleEvent", factory)
        accelerator = ModSRAMAccelerator(small_config(), trace=True)
        result = accelerator.multiply(0x2A, 0x51, 0xF1)
        assert factory.constructed == result.report.total_cycles
        assert len(result.trace) == result.report.total_cycles
        assert [event.cycle for event in result.trace.events] == list(
            range(result.report.total_cycles)
        )


class TestSinkReproducesLegacyTrace:
    def test_legacy_trace_resets_per_multiplication(self):
        accelerator = ModSRAMAccelerator(small_config(), trace=True)
        accelerator.multiply(0x2A, 0x51, 0xF1)
        second = accelerator.multiply(0x2B, 0x51, 0xF1)
        assert len(second.trace) == second.report.total_cycles
