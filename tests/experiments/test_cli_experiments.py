"""Tests for the ``repro experiment`` CLI and ``python -m repro`` parity."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


class TestExperimentList:
    def test_text_listing_names_every_experiment(self, capsys):
        assert main(["experiment", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("figure1", "figure5", "table3", "headline", "design-point"):
            assert name in output

    def test_json_listing_carries_the_parameter_schema(self, capsys):
        assert main(["experiment", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["hdl-cosim"]["quick_overrides"] == {
            "bitwidths": [16, 24], "cases": 3
        }
        assert "bitwidth" in by_name["figure6"]["defaults"]
        assert by_name["design-point"]["sweep_axes"] == [
            "bitwidth", "rows", "columns", "banks", "technology_nm"
        ]


class TestExperimentRun:
    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "run", "figure99", "--no-cache"]) == 1
        output = capsys.readouterr().out
        assert "error:" in output and "unknown experiment" in output

    def test_bad_set_syntax_fails_cleanly(self, capsys):
        code = main(["experiment", "run", "figure6", "--set", "bitwidth",
                     "--no-cache"])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().out

    def test_run_renders_the_legacy_text_view(self, capsys):
        assert main(["experiment", "run", "figure6", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output and "ModSRAM" in output

    def test_json_run_with_parameter_override(self, capsys):
        code = main(["experiment", "run", "figure6", "--set", "bitwidth=128",
                     "--json", "--no-cache"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment"] == "figure6"
        assert data["params"]["bitwidth"] == 128
        assert data["payload"]["bitwidth"] == 128
        assert data["cache_hit"] is False

    def test_headline_quick_json_smoke(self, capsys):
        """The CI smoke invocation: every claim must hold."""
        code = main(["experiment", "run", "headline", "--json", "--quick",
                     "--no-cache"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(claim["holds"] for claim in data["payload"]["claims"])

    def test_run_reads_the_cache_on_the_second_invocation(self, capsys, tmp_path):
        argv = ["experiment", "run", "figure6", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["payload"] == first["payload"]


class TestExperimentSweep:
    def test_sweep_summary_table(self, capsys, tmp_path):
        code = main(["experiment", "sweep", "figure6",
                     "--axis", "bitwidth=64,128",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 points" in output
        assert "0/2 points from cache" in output

    def test_sweep_json_round_trips_and_caches(self, capsys, tmp_path):
        argv = ["experiment", "sweep", "figure6", "--axis", "bitwidth=64,128",
                "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert [r["params"]["bitwidth"] for r in first["results"]] == [64, 128]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert all(r["cache_hit"] for r in second["results"])
        assert [r["payload"] for r in second["results"]] == [
            r["payload"] for r in first["results"]
        ]

    def test_sweep_render_mode_prints_every_point(self, capsys, tmp_path):
        code = main(["experiment", "sweep", "figure6",
                     "--axis", "bitwidth=64,128", "--render",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("Figure 6") == 2


class TestReportFlags:
    def test_parallel_report_is_byte_identical_to_serial(self, capsys):
        assert main(["report", "--quick", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["report", "--quick", "--parallel", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cached_report_reuses_results(self, capsys, tmp_path):
        argv = ["report", "--quick", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list(tmp_path.glob("*.json"))


class TestModuleEntryPoint:
    def test_python_dash_m_repro_matches_the_cli(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "backends"],
            capture_output=True,
            text=True,
            timeout=300,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert "r4csa-lut" in completed.stdout

    def test_python_dash_m_repro_experiment_run(self, tmp_path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "run", "headline",
             "--json", "--quick", "--cache-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=300,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        data = json.loads(completed.stdout)
        assert all(claim["holds"] for claim in data["payload"]["claims"])
