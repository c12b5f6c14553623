"""Tests for ExperimentSpec grids and the caching, parallel Runner."""

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
from repro.analysis.report import REPORT_DIVIDER, REPORT_EXPERIMENTS, build_report
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, Runner, SweepResult

# ---------------------------------------------------------------------- #
# specs
# ---------------------------------------------------------------------- #
class TestExperimentSpec:
    def test_single_point_without_sweep(self):
        spec = ExperimentSpec("figure6", {"bitwidth": 128})
        assert not spec.is_sweep
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
        loaded = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert loaded == spec


# ---------------------------------------------------------------------- #
# runner: correctness and parameter handling
# ---------------------------------------------------------------------- #
class TestRunnerExecution:
    def test_unknown_experiment_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            Runner(cache_dir=str(tmp_path)).run("figure99")

    def test_unknown_parameter_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            Runner(cache_dir=str(tmp_path)).run("figure6", {"bitwdith": 64})

    def test_quick_mode_applies_the_overrides(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        result = runner.run("dse-point", quick=True)
        assert result.params["workload_ops"] == 128
        assert result.result().jobs == 128

    def test_explicit_param_beats_quick_override(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        result = runner.run("dse-point", {"workload_ops": 64}, quick=True)
        assert result.params["workload_ops"] == 64

    def test_result_matches_the_direct_call(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        assert (
            runner.run("figure6").render() == reproduce_figure6().render()
        )

    def test_sweep_returns_grid_order_and_distinct_results(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        sweep = runner.sweep("figure6", {"bitwidth": [64, 128, 256]})
        assert [r.params["bitwidth"] for r in sweep.results] == [64, 128, 256]
        rows = [r.result().rows_by_design["mentt"] for r in sweep.results]
        assert rows == sorted(rows)  # MeNTT row need grows with bitwidth
        loaded = SweepResult.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert [x.render() for x in loaded.results] == [
            x.render() for x in sweep.results
        ]


# ---------------------------------------------------------------------- #
# runner: disk cache
# ---------------------------------------------------------------------- #
class TestRunnerCache:
    def test_miss_then_hit_with_identical_render(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        first = runner.run("figure6")
        second = runner.run("figure6")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.render() == first.render()
        assert len(list(tmp_path.glob("figure6-*.json"))) == 1

    def test_different_params_use_different_entries(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run("figure6", {"bitwidth": 64})
        runner.run("figure6", {"bitwidth": 128})
        assert len(list(tmp_path.glob("figure6-*.json"))) == 2
        assert runner.run("figure6", {"bitwidth": 64}).cache_hit

    def test_disabled_cache_neither_reads_nor_writes(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        runner.run("figure6")
        second = runner.run("figure6")
        assert not second.cache_hit
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        first = runner.run("figure6")
        path = runner.cache_path("figure6", first.params)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        recomputed = runner.run("figure6")
        assert not recomputed.cache_hit
        assert recomputed.render() == first.render()

    def test_unwritable_cache_dir_degrades_to_uncached(self, tmp_path):
        """A bad cache dir must never discard a computed result."""
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("occupied")
        runner = Runner(cache_dir=str(blocker / "sub"))
        result = runner.run("figure6")
        assert not result.cache_hit
        assert result.render() == reproduce_figure6().render()
        assert not runner.run("figure6").cache_hit  # still uncached

    def test_warm_sweep_performs_zero_recomputation(self, tmp_path):
        """Acceptance: a second cached sweep recomputes nothing."""
        runner = Runner(cache_dir=str(tmp_path))
        cold = runner.sweep("figure6", {"bitwidth": [64, 128, 256]})
        assert cold.cache_hits == 0
        warm = runner.sweep("figure6", {"bitwidth": [64, 128, 256]})
        assert warm.cache_hits == len(warm.results) == 3
        assert [r.render() for r in warm.results] == [
            r.render() for r in cold.results
        ]


# ---------------------------------------------------------------------- #
# runner: parallel execution
# ---------------------------------------------------------------------- #
class TestRunnerParallel:
    def test_parallel_specs_match_serial(self, tmp_path):
        specs = [
            ExperimentSpec("table1"),
            ExperimentSpec("figure5"),
            ExperimentSpec("figure6"),
        ]
        serial = Runner(use_cache=False).run_specs(specs)
        parallel = Runner(
            use_cache=False, parallel=True, max_workers=2
        ).run_specs(specs)
        assert [r.experiment for r in parallel] == [r.experiment for r in serial]
        assert [r.render() for r in parallel] == [r.render() for r in serial]

    def test_parallel_sweep_fills_the_cache(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), parallel=True, max_workers=2)
        cold = runner.sweep("figure6", {"bitwidth": [64, 128]})
        assert cold.cache_hits == 0
        warm = Runner(cache_dir=str(tmp_path)).sweep(
            "figure6", {"bitwidth": [64, 128]}
        )
        assert warm.cache_hits == 2


# ---------------------------------------------------------------------- #
# report acceptance: byte-identical to the legacy serial composition
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

    def test_parallel_report_is_byte_identical(self, legacy_quick_report):
        runner = Runner(parallel=True, use_cache=False)
        assert build_report(quick=True, runner=runner) == legacy_quick_report

    def test_cached_report_is_byte_identical(self, tmp_path, legacy_quick_report):
        runner = Runner(use_cache=True, cache_dir=str(tmp_path))
        cold = build_report(quick=True, runner=runner)
        warm = build_report(quick=True, runner=runner)
        assert cold == legacy_quick_report
        assert warm == legacy_quick_report
        # Nothing is left to recompute: every section is a cache hit.
        rerun = Runner(use_cache=True, cache_dir=str(tmp_path)).run_specs(
            [ExperimentSpec(name) for name in REPORT_EXPERIMENTS], quick=True
        )
        assert all(result.cache_hit for result in rerun)


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
             "assert len(available_experiments()) == 14"],
            capture_output=True,
            text=True,
            timeout=120,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
