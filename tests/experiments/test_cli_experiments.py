"""Tests for the ``repro experiment`` CLI and ``python -m repro`` parity."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro.cli import main
from repro.experiments import available_experiments, get_experiment

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
        assert main(["experiment", "run", "figure99"]) == 1
        output = capsys.readouterr().out
        assert "error:" in output and "unknown experiment" in output

    def test_bad_set_syntax_fails_cleanly(self, capsys):
        code = main(["experiment", "run", "figure6", "--set", "bitwidth"])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().out

    def test_run_renders_the_legacy_text_view(self, capsys):
        assert main(["experiment", "run", "figure6"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output and "ModSRAM" in output

    def test_json_run_with_parameter_override(self, capsys):
        code = main(["experiment", "run", "figure6", "--set", "bitwidth=128",
                     "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"experiment", "params", "payload", "elapsed_seconds"}
        assert data["experiment"] == "figure6"
        assert data["params"]["bitwidth"] == 128
        assert data["payload"]["bitwidth"] == 128

    def test_headline_quick_json_smoke(self, capsys):
        """The CI smoke invocation: every claim must hold."""
        code = main(["experiment", "run", "headline", "--json", "--quick"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(claim["holds"] for claim in data["payload"]["claims"])

    def test_second_run_reflects_changed_code(self, capsys, monkeypatch):
        """A repeated run recomputes: it never replays an older result."""
        import dataclasses

        import repro.analysis.figure6 as figure6

        argv = ["experiment", "run", "figure6", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        original = figure6.get_design

        def one_more_mentt_row(name):
            design = original(name)
            if name != "mentt":
                return design
            rows = design.row_model
            return dataclasses.replace(design, row_model=lambda n: rows(n) + 1)

        monkeypatch.setattr(figure6, "get_design", one_more_mentt_row)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        rows = first["payload"]["rows_by_design"]
        assert second["payload"]["rows_by_design"] == dict(
            rows, mentt=rows["mentt"] + 1
        )


class TestExperimentSweep:
    def test_sweep_summary_table(self, capsys):
        code = main(["experiment", "sweep", "figure6",
                     "--axis", "bitwidth=64,128"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 points" in output
        assert "computed 2 points in" in output

    def test_sweep_json_lists_every_point(self, capsys):
        argv = ["experiment", "sweep", "figure6", "--axis", "bitwidth=64,128",
                "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"] == {
            "experiment": "figure6", "params": {}, "sweep": {"bitwidth": [64, 128]}
        }
        assert [r["params"]["bitwidth"] for r in data["results"]] == [64, 128]
        assert [r["payload"]["bitwidth"] for r in data["results"]] == [64, 128]

    def test_sweep_render_mode_prints_every_point(self, capsys):
        code = main(["experiment", "sweep", "figure6",
                     "--axis", "bitwidth=64,128", "--render"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("Figure 6") == 2


class TestNothingWritten:
    @pytest.mark.parametrize("name", available_experiments())
    def test_every_experiment_run_writes_nothing(
        self, name, capsys, monkeypatch, tmp_path
    ):
        """Each exhibit runs afresh: its ``--json`` run leaves no file behind."""
        home, work, scratch = tmp_path / "home", tmp_path / "work", tmp_path / "tmp"
        for directory in (home, work, scratch):
            directory.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(work)
        assert main(["experiment", "run", name, "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"experiment", "params", "payload", "elapsed_seconds"}
        assert data["experiment"] == name
        resolved = get_experiment(name).resolve_params(quick=True)
        assert data["params"] == json.loads(json.dumps(resolved))
        assert sorted(tmp_path.rglob("*")) == sorted([home, work, scratch])

    def test_exhibit_commands_write_no_file(
        self, capsys, monkeypatch, tmp_path
    ):
        home, work = tmp_path / "home", tmp_path / "work"
        home.mkdir()
        work.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(work)
        for argv in (
            ["report", "--quick"],
            ["experiment", "run", "figure6"],
            ["experiment", "sweep", "figure6", "--axis", "bitwidth=64,128"],
            ["chip", "--quick", "--json"],
            ["dse", "run", "--quick"],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert list(home.rglob("*")) == []
        assert list(work.rglob("*")) == []


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

    def test_python_dash_m_repro_experiment_run(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "run", "headline",
             "--json", "--quick"],
            capture_output=True,
            text=True,
            timeout=300,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        data = json.loads(completed.stdout)
        assert all(claim["holds"] for claim in data["payload"]["claims"])
