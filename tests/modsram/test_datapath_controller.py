"""Tests for the near-memory datapath and the controller FSM."""

from __future__ import annotations

import pytest

from repro.errors import ControllerError
from repro.modsram import Controller, ControllerState, ModSRAMConfig, NearMemoryDatapath
from repro.modsram.controller import CycleBudget
from repro.modsram.trace import Phase


@pytest.fixture()
def datapath() -> NearMemoryDatapath:
    return NearMemoryDatapath(ModSRAMConfig(bitwidth=16, columns=16))


class TestDatapathRegisters:
    def test_load_multiplier(self, datapath):
        datapath.load_multiplier(0xBEEF)
        assert datapath.stats.register_writes == 1
        assert datapath.stats.register_bits_written == 16

    def test_load_multiplier_width_checked(self, datapath):
        with pytest.raises(ControllerError):
            datapath.load_multiplier(1 << 16)

    def test_latch_imc_result_counts_two_register_writes(self, datapath):
        datapath.latch_imc_result(0x1F, 0x2A)
        assert datapath.stats.register_writes == 2
        assert datapath.stats.register_bits_written == 2 * 17

    def test_msb_extensions(self, datapath):
        datapath.set_accumulator_msbs(1, 0)
        assert datapath.sum_msb == 1
        assert datapath.carry_msb == 0
        with pytest.raises(ControllerError):
            datapath.set_accumulator_msbs(2, 0)

    def test_overflow_flipflops(self, datapath):
        datapath.set_shift_overflow(5)
        datapath.set_pending_carry_out(1)
        assert datapath.overflow_index(0) == 5 + 4
        assert datapath.stats.overflow_updates == 1
        with pytest.raises(ControllerError):
            datapath.set_shift_overflow(-1)
        with pytest.raises(ControllerError):
            datapath.set_pending_carry_out(2)

    def test_overflow_index_combines_all_sources(self, datapath):
        datapath.set_shift_overflow(3)
        datapath.set_pending_carry_out(1)
        assert datapath.overflow_index(1) == 3 + 1 + 4
        with pytest.raises(ControllerError):
            datapath.overflow_index(2)

    def test_stats_as_dict(self, datapath):
        datapath.load_multiplier(1)
        assert datapath.stats.as_dict()["register_writes"] == 1


class TestBoothWindow:
    def test_window_matches_reference_encoder(self, datapath):
        from repro.core.booth import booth_digits_radix4

        value = 0xB5E3
        datapath.load_multiplier(value)
        total = 9  # 16-bit full-range digit count
        digits = [datapath.booth_digit(i, total) for i in range(total)]
        assert digits == booth_digits_radix4(value, 16, full_range=True)

    def test_window_bounds_checked(self, datapath):
        datapath.load_multiplier(1)
        with pytest.raises(ControllerError):
            datapath.booth_window(9, 9)


class TestControllerFsm:
    def test_legal_phase_sequence(self):
        controller = Controller(iterations=2)
        controller.transition(ControllerState.LOAD)
        controller.tick(Phase.LOAD_MULTIPLIER)
        controller.transition(ControllerState.PRECOMPUTE)
        controller.tick(Phase.PRECOMPUTE)
        controller.transition(ControllerState.ITERATE)
        controller.begin_iteration(0)
        controller.tick(Phase.IMC_RADIX4)
        controller.tick(Phase.WRITEBACK_SUM)
        controller.begin_iteration(1)
        controller.transition(ControllerState.FINALIZE)
        controller.tick(Phase.FINALIZE)
        controller.transition(ControllerState.DONE)
        assert controller.state is ControllerState.DONE
        assert controller.budget.load_cycles == 1
        assert controller.budget.precompute_cycles == 1
        assert controller.budget.iteration_cycles == 2
        assert controller.budget.finalize_cycles == 1

    def test_illegal_transition_rejected(self):
        controller = Controller(iterations=1)
        with pytest.raises(ControllerError):
            controller.transition(ControllerState.ITERATE)

    def test_phase_not_allowed_in_state(self):
        controller = Controller(iterations=1)
        controller.transition(ControllerState.LOAD)
        with pytest.raises(ControllerError):
            controller.tick(Phase.IMC_RADIX4)

    def test_iterations_must_be_sequential(self):
        controller = Controller(iterations=3)
        controller.transition(ControllerState.LOAD)
        controller.transition(ControllerState.ITERATE)
        controller.begin_iteration(0)
        with pytest.raises(ControllerError):
            controller.begin_iteration(2)

    def test_iteration_out_of_range(self):
        controller = Controller(iterations=1)
        controller.transition(ControllerState.LOAD)
        controller.transition(ControllerState.ITERATE)
        with pytest.raises(ControllerError):
            controller.begin_iteration(1)

    def test_iterate_requires_iterate_state(self):
        controller = Controller(iterations=1)
        with pytest.raises(ControllerError):
            controller.begin_iteration(0)

    def test_returning_to_idle_resets_budget(self):
        controller = Controller(iterations=1)
        controller.transition(ControllerState.LOAD)
        controller.tick(Phase.LOAD_MULTIPLIER)
        controller.transition(ControllerState.ITERATE)
        controller.transition(ControllerState.FINALIZE)
        controller.transition(ControllerState.DONE)
        controller.transition(ControllerState.IDLE)
        assert controller.budget == CycleBudget()
        assert controller.cycle == 0

    def test_invalid_iteration_count(self):
        with pytest.raises(ControllerError):
            Controller(iterations=0)

    def test_a_new_budget_is_empty(self):
        assert Controller(iterations=1).budget == CycleBudget()
