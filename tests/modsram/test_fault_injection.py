"""Fault-injection tests: what happens when the analogue assumptions break.

The correctness of ModSRAM rests on the logic-SA resolving four bitline
levels reliably.  These tests inject the two failure modes a silicon bring-up
would worry about — insufficient sensing margin and excessive bitline noise —
and check that the behavioural model *detects* them (raising
``SenseMarginError``) instead of silently producing a wrong product, and that
the disturb-protection of the 6T/8T cell choice is enforced.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError, ReadDisturbError, SenseMarginError
from repro.modsram import ModSRAMAccelerator, ModSRAMConfig
from repro.sram import (
    LogicSenseAmpModule,
    SenseAmpParameters,
    SixTransistorCell,
    SramArray,
)


class TestSenseMarginFaults:
    def test_degenerate_margin_is_rejected_at_configuration_time(self):
        """An offset of half a discharge step leaves no margin at all."""
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(discharge_per_cell_v=0.25, sense_offset_v=0.125)

    def test_huge_noise_triggers_margin_errors_during_multiplication(self):
        """With 80 mV of bitline noise the macro cannot run reliably.

        The model raises rather than returning a silently wrong product:
        every logic-SA comparison whose noisy differential falls inside the
        amplifier offset is flagged.
        """
        noisy_sense = SenseAmpParameters(noise_sigma_v=0.08, sense_offset_v=0.02)
        config = dataclasses.replace(
            ModSRAMConfig().with_bitwidth(32), sense=noisy_sense
        )
        accelerator = ModSRAMAccelerator(config)
        modulus = (1 << 32) - 5
        with pytest.raises(SenseMarginError):
            # A couple of hundred noisy comparisons per access make at least
            # one marginal decision virtually certain over a whole multiply.
            for _ in range(3):
                accelerator.multiply(0x1234_5678, 0x0FED_CBA9, modulus)

    def test_moderate_noise_far_from_references_is_tolerated(self):
        """Noise well below the margin does not disturb the computation."""
        mild_sense = SenseAmpParameters(noise_sigma_v=0.002, sense_offset_v=0.02)
        config = dataclasses.replace(
            ModSRAMConfig().with_bitwidth(16), sense=mild_sense
        )
        accelerator = ModSRAMAccelerator(config)
        result = accelerator.multiply(1234, 5678, 65521)
        assert result.product == (1234 * 5678) % 65521

    def test_logic_sa_flags_marginal_column_directly(self):
        """A single marginal comparison is detected at the module level."""
        parameters = SenseAmpParameters(noise_sigma_v=0.2, sense_offset_v=0.02)
        module = LogicSenseAmpModule(columns=4, parameters=parameters)
        saw_margin_error = False
        for _ in range(200):
            try:
                module.column_level(2)
            except SenseMarginError:
                saw_margin_error = True
                break
        assert saw_margin_error


class TestReadDisturbFaults:
    def test_6t_array_cannot_run_the_logic_sa_access_pattern(self):
        """The design requires the 8T cell: 6T multi-row reads are disturbed."""
        array = SramArray(rows=8, cols=8, cell=SixTransistorCell)
        array.write_row(0, 0b1010)
        array.write_row(1, 0b0110)
        array.write_row(2, 0b0011)
        with pytest.raises(ReadDisturbError):
            array.activate_rows([0, 1, 2])

    def test_configuration_layer_blocks_6t_macros(self):
        """Mis-configuring the macro with a 6T cell is caught before any access."""
        with pytest.raises(ConfigurationError):
            ModSRAMConfig(cell=SixTransistorCell)

    @pytest.mark.parametrize("sense_amps", [1, 2])
    def test_configuration_layer_blocks_too_few_sense_amps(self, sense_amps):
        """Fewer sense amplifiers than activated rows would corrupt products.

        With one or two per bitline a column holding three ones reads back
        as a lower level, so the cycle tier would return wrong products
        without raising; the macro configuration refuses it instead.
        """
        sense = SenseAmpParameters(sense_amps_per_bitline=sense_amps)
        with pytest.raises(ConfigurationError, match="sense amplifier"):
            ModSRAMConfig(sense=sense)

    def test_more_sense_amps_than_activated_rows_still_multiply(self):
        sense = SenseAmpParameters(sense_amps_per_bitline=4)
        config = dataclasses.replace(ModSRAMConfig().with_bitwidth(16), sense=sense)
        result = ModSRAMAccelerator(config).multiply(1234, 5678, 65521)
        assert result.product == (1234 * 5678) % 65521
