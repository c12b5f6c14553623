"""Tests for ExperimentSpec grids and in-process experiment execution."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    reproduce_chip_scaling,
    reproduce_figure1,
    reproduce_figure5,
    reproduce_figure6,
    reproduce_figure7,
    reproduce_headline_claims,
    reproduce_table3,
    reproduce_tables,
)
from repro.analysis.report import REPORT_DIVIDER, build_report
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, get_experiment

# ---------------------------------------------------------------------- #
# specs
# ---------------------------------------------------------------------- #
class TestExperimentSpec:
    def test_single_point_without_sweep(self):
        spec = ExperimentSpec("figure6", {"bitwidth": 128})
        assert not spec.sweep
        assert spec.points() == [{"bitwidth": 128}]

    def test_cartesian_grid_expansion(self):
        spec = ExperimentSpec(
            "design-point",
            {"rows": 32},
            {"bitwidth": [64, 128], "technology_nm": [65, 45]},
        )
        points = spec.points()
        assert len(points) == 4
        assert {(p["bitwidth"], p["technology_nm"]) for p in points} == {
            (64, 65), (64, 45), (128, 65), (128, 45)
        }
        assert all(p["rows"] == 32 for p in points)

    def test_axis_conflicting_with_fixed_param_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("figure6", {"bitwidth": 64}, {"bitwidth": [64, 128]})

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("figure6", {}, {"bitwidth": []})

    def test_spec_round_trips_through_json(self):
        spec = ExperimentSpec("figure6", {}, {"bitwidth": [64, 128]})
        assert json.loads(json.dumps(spec.to_dict())) == {
            "experiment": "figure6",
            "params": {},
            "sweep": {"bitwidth": [64, 128]},
        }


# ---------------------------------------------------------------------- #
# execution: correctness and parameter handling
# ---------------------------------------------------------------------- #
class TestExecute:
    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("figure99")

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            get_experiment("figure6").execute({"bitwdith": 64})

    def test_quick_mode_applies_the_overrides(self):
        result = get_experiment("dse-point").execute(quick=True)
        assert result.params["workload_ops"] == 128
        assert result.result.jobs == 128

    def test_explicit_param_beats_quick_override(self):
        result = get_experiment("dse-point").execute(
            {"workload_ops": 64}, quick=True
        )
        assert result.params["workload_ops"] == 64

    def test_result_matches_the_direct_call(self):
        assert (
            get_experiment("figure6").execute().render()
            == reproduce_figure6().render()
        )

    def test_result_holds_the_live_object(self):
        result = get_experiment("figure6").execute({"bitwidth": 128})
        assert result.experiment == "figure6"
        assert result.params == {"bitwidth": 128}
        assert result.result.bitwidth == 128
        assert result.elapsed_seconds >= 0
        assert json.loads(result.to_json()) == {
            "experiment": "figure6",
            "params": {"bitwidth": 128},
            "payload": result.result.to_dict(),
            "elapsed_seconds": result.elapsed_seconds,
        }

    def test_sweep_returns_grid_order_and_distinct_results(self):
        spec = ExperimentSpec("figure6", sweep={"bitwidth": [64, 128, 256]})
        definition = get_experiment(spec.experiment)
        results = [definition.execute(point) for point in spec.points()]
        assert [r.params["bitwidth"] for r in results] == [64, 128, 256]
        rows = [r.result.rows_by_design["mentt"] for r in results]
        assert rows == sorted(rows)  # MeNTT row need grows with bitwidth


# ---------------------------------------------------------------------- #
# report acceptance: byte-identical to the direct serial composition
# ---------------------------------------------------------------------- #
class TestReportEquivalence:
    @pytest.fixture(scope="class")
    def legacy_quick_report(self):
        return REPORT_DIVIDER.join(
            [
                reproduce_tables().render(),
                reproduce_figure1().render(),
                reproduce_figure5().render(),
                reproduce_figure6().render(),
                reproduce_figure7().render(),
                reproduce_table3().render(),
                reproduce_headline_claims().render(),
                reproduce_chip_scaling(
                    macro_counts=(1, 2, 4),
                    scalar_bits=64,
                    vector_size=256,
                    msm_points=16,
                ).render(),
            ]
        )

    def test_serial_report_is_byte_identical(self, legacy_quick_report):
        assert build_report(quick=True) == legacy_quick_report


class TestImportOrders:
    def test_experiments_first_import_has_no_cycle(self):
        """Importing repro.experiments before repro.analysis must work."""
        import os
        import subprocess
        import sys

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments import available_experiments; "
             "assert len(available_experiments()) == 13"],
            capture_output=True,
            text=True,
            timeout=120,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
