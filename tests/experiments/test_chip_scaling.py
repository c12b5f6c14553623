"""Tests for the chip-scaling experiment, its registration and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.chip_scaling import reproduce_chip_scaling
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, get_experiment

QUICK_PARAMS = {
    "macro_counts": [1, 2],
    "scalar_bits": 32,
    "vector_size": 128,
    "msm_points": 8,
}

#: (jobs, makespan cycles at 1/2/4 macros) of each workload at 32-bit
#: scalars, a 128-point NTT and an 8-point MSM, recorded from the
#: hand-written job streams the experiment dispatched before the workload
#: builders became their only description.
PINNED_MAKESPANS = {
    "ecdsa-sign": (482, (374644, 187366, 93995)),
    "scalar-mult": (432, (335744, 167916, 83958)),
    "ntt": (448, (345013, 172853, 86597)),
    "msm": (2896, (2247808, 1124564, 562645)),
}


class TestReproduceChipScaling:
    @pytest.mark.parametrize("workload", sorted(PINNED_MAKESPANS))
    def test_pinned_makespans(self, workload):
        result = reproduce_chip_scaling(
            workload=workload,
            macro_counts=(1, 2, 4),
            scalar_bits=32,
            vector_size=128,
            msm_points=8,
        )
        jobs, makespans = PINNED_MAKESPANS[workload]
        assert [point.jobs for point in result.points] == [jobs] * 3
        assert (
            tuple(point.makespan_cycles for point in result.points) == makespans
        )

    def test_speedup_normalised_to_one_macro(self):
        result = reproduce_chip_scaling(
            workload="ntt", macro_counts=(1, 4), vector_size=256
        )
        assert result.points[0].macros == 1
        assert result.points[0].speedup == pytest.approx(1.0)
        assert result.points[1].speedup > 1.0
        assert result.points[1].efficiency <= 1.0 + 1e-9

    def test_baseline_is_computed_even_without_macro_count_one(self):
        result = reproduce_chip_scaling(
            workload="ntt", macro_counts=(4,), vector_size=256
        )
        (point,) = result.points
        assert point.macros == 4
        assert point.speedup > 1.0  # measured against an implicit 1-macro run

    def test_every_workload_runs(self):
        for workload in ("ecdsa-sign", "scalar-mult", "ntt", "msm"):
            result = reproduce_chip_scaling(
                workload=workload,
                macro_counts=(1, 2),
                scalar_bits=16,
                vector_size=64,
                msm_points=4,
            )
            assert result.workload == workload
            assert all(point.jobs > 0 for point in result.points)
            assert workload in result.render()

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            reproduce_chip_scaling(workload="sha256", macro_counts=(1,))

    def test_empty_macro_counts_are_rejected(self):
        with pytest.raises(ConfigurationError, match="macro_counts"):
            reproduce_chip_scaling(macro_counts=())


class TestRegisteredExperiment:
    def test_registered_with_quick_overrides_and_sweep_axes(self):
        definition = get_experiment("chip-scaling")
        assert "workload" in definition.sweep_axes
        assert definition.quick_overrides  # quick mode shrinks the workload

    def test_sweep_over_workloads(self):
        spec = ExperimentSpec(
            "chip-scaling", QUICK_PARAMS, {"workload": ["ntt", "scalar-mult"]}
        )
        definition = get_experiment(spec.experiment)
        results = [definition.execute(point) for point in spec.points()]
        assert len(results) == 2
        rendered = [result.render() for result in results]
        assert "ntt" in rendered[0] and "scalar-mult" in rendered[1]


class TestChipCli:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    def test_chip_subcommand_renders_a_table(self, capsys):
        code, out = self.run_cli(
            capsys,
            "chip", "--workload", "ntt", "--macro-counts", "1,2",
            "--vector-size", "128",
        )
        assert code == 0
        assert "Chip scale-out on ntt" in out

    def test_chip_subcommand_json(self, capsys):
        code, out = self.run_cli(capsys, "chip", "--quick", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "chip-scaling"
        assert payload["payload"]["workload"] == "ecdsa-sign"
        assert len(payload["payload"]["points"]) == 3  # quick grid: 1, 2, 4

    def test_quick_mode_applies_the_experiment_overrides(self, capsys):
        """--quick must shrink the workload, not just the macro grid."""
        code, out = self.run_cli(capsys, "chip", "--quick", "--json")
        assert code == 0
        params = json.loads(out)["params"]
        assert params["scalar_bits"] == 64  # the experiment's quick override
        assert params["macro_counts"] == [1, 2, 4]

    def test_explicit_flags_win_even_in_quick_mode(self, capsys):
        code, out = self.run_cli(
            capsys,
            "chip", "--quick", "--json", "--macro-counts", "1,8",
            "--scalar-bits", "16",
        )
        assert code == 0
        params = json.loads(out)["params"]
        assert params["macro_counts"] == [1, 8]
        assert params["scalar_bits"] == 16

    def test_flags_equal_to_the_full_defaults_win_in_quick_mode(self, capsys):
        code, out = self.run_cli(
            capsys,
            "chip", "--quick", "--json", "--macro-counts", "1,2,4,8,16",
            "--scalar-bits", "256",
        )
        assert code == 0
        data = json.loads(out)
        assert data["params"]["macro_counts"] == [1, 2, 4, 8, 16]
        assert data["params"]["scalar_bits"] == 256
        assert len(data["payload"]["points"]) == 5

    def test_chip_subcommand_rejects_bad_macros(self, capsys):
        code, out = self.run_cli(capsys, "chip", "--macro-counts", "two")
        assert code == 2
        assert "comma-separated integers" in out
        # The experiment rejects a macro count below one itself.
        code, out = self.run_cli(capsys, "chip", "--macro-counts", "0")
        assert code == 1
        assert out.startswith("error:") and "positive" in out
