"""Tests for the command-line interface and the example scripts."""

from __future__ import annotations

import json
import os
import py_compile
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)
ALL_EXAMPLES = (
    "quickstart.py",
    "engine_quickstart.py",
    "ecc_point_multiplication.py",
    "zkp_pipeline.py",
    "design_space_exploration.py",
    "dataflow_walkthrough.py",
    "ecdsa_signing.py",
    "serving_quickstart.py",
    "sharded_serving.py",
)


class TestCliParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("report", "multiply", "cycles"):
            arguments = parser.parse_args(
                [command] + (["1", "2"] if command == "multiply" else [])
            )
            assert arguments.command == command

    def test_hex_and_decimal_operands(self):
        parser = build_parser()
        arguments = parser.parse_args(["multiply", "0x10", "16"])
        assert arguments.a == 16 and arguments.b == 16

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliCommands:
    def test_multiply_command(self, capsys):
        assert main(["multiply", "0x1234", "0x5678", "--modulus", "0xFFF1"]) == 0
        output = capsys.readouterr().out
        assert hex((0x1234 * 0x5678) % 0xFFF1) in output

    def test_multiply_on_a_named_curve(self, capsys):
        assert main(["multiply", "12345", "67890", "--curve", "bn254"]) == 0
        assert "product" in capsys.readouterr().out

    def test_multiply_unknown_backend(self, capsys):
        assert main(["multiply", "1", "2", "--backend", "nonexistent"]) == 2
        assert "unknown backend" in capsys.readouterr().out

    def test_cycles_command(self, capsys):
        assert main(["cycles", "--bitwidth", "256"]) == 0
        output = capsys.readouterr().out
        assert "767" in output and "66,049" in output

    def test_area_of_a_configuration(self, capsys):
        """Figure 5's experiment prices any rows x width at any node."""
        argv = ["experiment", "run", "figure5", "--set", "rows=128",
                "--set", "bitwidth=128", "--set", "technology_nm=45", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert sum(payload["breakdown"].values()) == pytest.approx(0.022055, abs=1e-6)
        assert payload["overhead_percent"] == pytest.approx(20.02, abs=0.005)


class TestExamples:
    def test_every_example_exists_and_compiles(self):
        for name in ALL_EXAMPLES:
            path = os.path.join(EXAMPLES_DIR, name)
            assert os.path.exists(path), name
            py_compile.compile(path, doraise=True)

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_runs(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        completed = subprocess.run(
            [sys.executable, path],
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip()

    def test_quickstart_reports_the_headline_cycle_count(self):
        path = os.path.join(EXAMPLES_DIR, "quickstart.py")
        completed = subprocess.run(
            [sys.executable, path], capture_output=True, text=True, timeout=300, check=False
        )
        assert completed.returncode == 0, completed.stderr
        assert "767" in completed.stdout
