"""Tests for the area model, the execution trace and the multiplier adapter."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core import available_multipliers, get_multiplier
from repro.errors import ConfigurationError
from repro.modsram import (
    AreaModel,
    AreaParameters,
    CycleEvent,
    ExecutionTrace,
    ModSRAMChipMultiplier,
    ModSRAMConfig,
    ModSRAMFastMultiplier,
    ModSRAMHdlMultiplier,
    ModSRAMMultiplier,
    PAPER_AREA_MM2,
    PAPER_AREA_OVERHEAD_PERCENT,
    PAPER_BREAKDOWN_PERCENT,
    PAPER_CONFIG,
    Phase,
)


class TestAreaModel:
    @pytest.fixture()
    def model(self) -> AreaModel:
        return AreaModel(PAPER_CONFIG)

    def test_total_matches_paper_within_five_percent(self, model):
        total = model.total_mm2()
        assert abs(total - PAPER_AREA_MM2) / PAPER_AREA_MM2 < 0.05

    def test_breakdown_matches_figure5_within_two_points(self, model):
        percentages = model.breakdown().percentages
        for component, paper_share in PAPER_BREAKDOWN_PERCENT.items():
            assert abs(percentages[component] - paper_share) < 2.0, component

    def test_overhead_matches_paper_within_four_points(self, model):
        assert abs(model.overhead_percent() - PAPER_AREA_OVERHEAD_PERCENT) < 4.0

    def test_array_dominates_the_macro(self, model):
        breakdown = model.breakdown()
        assert breakdown.sram_array_mm2 > 0.5 * breakdown.total_mm2

    def test_breakdown_as_dict_totals(self, model):
        data = model.breakdown().as_dict()
        assert data["total_mm2"] == pytest.approx(
            data["sram_array_mm2"]
            + data["in_memory_circuit_mm2"]
            + data["near_memory_circuit_mm2"]
            + data["decoder_mm2"]
        )

    def test_baseline_sram_is_smaller_than_the_macro(self, model):
        assert model.baseline_sram_mm2() < model.total_mm2()

    def test_area_scales_with_array_size(self):
        models = [AreaModel(ModSRAMConfig(rows=rows)) for rows in (32, 64, 128, 256)]
        totals = [model.total_mm2() for model in models]
        assert totals[0] < totals[1] < totals[2] < totals[3]
        # Taller arrays amortise the per-column circuits: the array's share
        # rises while the in-memory circuit's share and the overhead fall.
        first, last = models[0].breakdown(), models[-1].breakdown()
        assert last.percentages["sram_array"] > first.percentages["sram_array"]
        assert (
            last.percentages["in_memory_circuit"]
            < first.percentages["in_memory_circuit"]
        )
        overheads = [model.overhead_percent() for model in models]
        assert overheads[0] > overheads[1] > overheads[2] > overheads[3]

    def test_technology_scaling_is_quadratic(self):
        params_28 = AreaParameters().scaled_to(28)
        assert params_28.cell_area_um2 == pytest.approx(
            AreaParameters().cell_area_um2 * (28 / 65) ** 2
        )
        config_28 = ModSRAMConfig(technology_nm=28)
        assert AreaModel(config_28).total_mm2() < AreaModel(PAPER_CONFIG).total_mm2()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AreaParameters(cell_area_um2=0)
        with pytest.raises(ConfigurationError):
            AreaParameters().scaled_to(0)


class TestExecutionTrace:
    def test_record_and_query(self):
        trace = ExecutionTrace()
        trace.record(CycleEvent(cycle=0, phase=Phase.IMC_RADIX4, iteration=0, rows_read=(1, 2, 3)))
        trace.record(CycleEvent(cycle=1, phase=Phase.WRITEBACK_SUM, iteration=0, rows_written=(4,)))
        trace.record(CycleEvent(cycle=2, phase=Phase.FINALIZE))
        assert len(trace) == 3
        assert trace.compute_access_count() == 1
        assert trace.phase_histogram() == {
            "finalize": 1, "imc-radix4": 1, "writeback-sum": 1,
        }

    def test_disabled_trace_records_nothing(self):
        trace = ExecutionTrace(enabled=False)
        trace.record(CycleEvent(cycle=0, phase=Phase.FINALIZE))
        assert len(trace) == 0

    def test_render_limit_and_filter(self):
        trace = ExecutionTrace()
        for cycle in range(10):
            trace.record(CycleEvent(cycle=cycle, phase=Phase.PRECOMPUTE))
        text = trace.render(limit=3)
        assert "more cycles" in text
        assert text.count("\n") == 3
        filtered = trace.render(phases=[Phase.FINALIZE])
        assert filtered == ""

    def test_describe_mentions_rows_and_digit(self):
        event = CycleEvent(
            cycle=5,
            phase=Phase.IMC_RADIX4,
            iteration=2,
            rows_read=(1, 2, 3),
            digit=-2,
            overflow_index=None,
            note="hello",
        )
        text = event.describe()
        assert "imc-radix4" in text and "digit -2" in text and "hello" in text

    def test_phase_classification(self):
        assert Phase.IMC_RADIX4.is_compute_access()
        assert Phase.IMC_OVERFLOW.is_compute_access()
        assert not Phase.FINALIZE.is_compute_access()
        assert not Phase.WRITEBACK_CARRY.is_compute_access()


#: The four tier adapters; each names only the tier its simulators run.
ADAPTERS = (
    ModSRAMMultiplier,
    ModSRAMFastMultiplier,
    ModSRAMChipMultiplier,
    ModSRAMHdlMultiplier,
)


class TestModSRAMMultiplierAdapter:
    def test_registered_in_the_registry(self):
        assert "modsram" in available_multipliers()
        assert get_multiplier("modsram") is ModSRAMMultiplier

    def test_matches_oracle(self, rng):
        multiplier = ModSRAMMultiplier()
        modulus = 65521
        for _ in range(5):
            a, b = rng.randrange(modulus), rng.randrange(modulus)
            assert multiplier.multiply(a, b, modulus) == (a * b) % modulus

    def test_reports_accumulate(self, rng):
        multiplier = ModSRAMMultiplier()
        modulus = 65521
        multiplier.multiply(3, 7, modulus)
        first = multiplier.last_report
        multiplier.multiply(5, 7, modulus)
        second = multiplier.last_report
        assert multiplier.stats.multiplications == 2
        assert not first.lut_reused and second.lut_reused
        assert multiplier.total_iteration_cycles() == (
            first.iteration_cycles + second.iteration_cycles
        )
        assert multiplier.lut_reuse_rate() == pytest.approx(0.5)

    def test_reset_stats_clears_the_cycle_aggregates(self):
        multiplier = ModSRAMFastMultiplier()
        multiplier.multiply(3, 7, 65521)
        multiplier.reset_stats()
        assert multiplier.stats.multiplications == 0
        assert multiplier.last_report is None
        assert multiplier.total_iteration_cycles() == 0
        assert multiplier.lut_reuse_rate() == 0.0

    def test_retained_memory_does_not_grow_with_multiplications(self):
        """An adapter serving for a process's lifetime keeps no per-call state."""
        multiplier = ModSRAMFastMultiplier()
        modulus = 65521
        rng = random.Random(11)

        def run(count):
            for _ in range(count):
                a, b = rng.randrange(modulus), rng.randrange(modulus)
                multiplier.multiply(a, b, modulus)

        def retained():
            # A full collection also empties the interpreter's free lists, so
            # collecting before both readings keeps an automatic collection
            # inside the window from reading as growth.
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        run(100)  # provisions the macro
        tracemalloc.start()
        try:
            run(1000)
            after_1000 = retained()
            run(1000)
            after_2000 = retained()
        finally:
            tracemalloc.stop()
        assert after_2000 - after_1000 < 4096
        assert multiplier.stats.multiplications == 2100

    @pytest.mark.parametrize("adapter", ADAPTERS, ids=lambda cls: cls.name)
    def test_macro_is_provisioned_per_bitwidth(self, adapter):
        multiplier = adapter()
        multiplier.multiply(3, 7, 65521)
        multiplier.multiply(3, 7, (1 << 24) - 3)
        assert set(multiplier._simulators) == {16, 24}
        assert multiplier.simulator_for(65521).config.bitwidth == 16

    @pytest.mark.parametrize("adapter", ADAPTERS, ids=lambda cls: cls.name)
    def test_explicit_configuration_is_respected(self, adapter):
        config = ModSRAMConfig(extend_for_full_range=False).with_bitwidth(16)
        multiplier = adapter(config)
        assert multiplier.multiply(3, 7, 65521) == 21
        assert multiplier.simulator_for(65521).config is config
        assert multiplier.last_report.iterations == config.iterations

    def test_cycles_matches_schedule(self):
        multiplier = ModSRAMMultiplier()
        assert multiplier.cycles(256) == 773  # full-range default
        paper = ModSRAMMultiplier(PAPER_CONFIG)
        assert paper.cycles(256) == 767

    def test_lut_reuse_rate_empty(self):
        assert ModSRAMMultiplier().lut_reuse_rate() == 0.0
