"""The exhibit shortcuts are the experiment runner under another name.

``repro chip``, ``repro serve``, ``repro hdl cosim`` and ``repro dse run``
run ``chip-scaling``, ``serving-throughput``, ``hdl-cosim`` and ``dse``:
each takes every parameter its experiment declares, reads values as the
parameter's declared type, and prints and exits as ``repro experiment
run`` does.  The CLI loads no exhibit layer before a subcommand needs it.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dse import load_spec
from repro.dse.spec import SweepSpec
from repro.experiments import ExperimentDefinition, get_experiment
from repro.modsram.analytical import AnalyticalModSRAM

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: Shortcut command words -> the experiment the shortcut runs.
SHORTCUTS = {
    ("chip",): "chip-scaling",
    ("serve",): "serving-throughput",
    ("hdl", "cosim"): "hdl-cosim",
    ("dse", "run"): "dse",
}

#: Layers no subcommand may load before it runs.
LAZY_LAYERS = ("repro.analysis", "repro.baselines", "repro.hdl", "repro.cluster",
               "repro.dse", "repro.service")

SMALL_SPEC = SweepSpec(
    name="small",
    axes={"bitwidth": [64], "rows": [32]},
    fixed={"workload_ops": 16},
)


def _environment():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    return environment


def _repro(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=_environment(),
        check=False,
    )


def _flag_value(default):
    """A command-line value for a parameter, and what it must resolve to."""
    if isinstance(default, list):
        return ",".join(str(value) for value in default[:2]), default[:2]
    if isinstance(default, int):
        return str(default + 1), default + 1
    if isinstance(default, str):
        return default, default
    return "3", 3


def _shortcut_parameters():
    for words, experiment in SHORTCUTS.items():
        for name in get_experiment(experiment).defaults:
            yield pytest.param(words, experiment, name, id=f"{experiment}-{name}")


class _Stop(Exception):
    """Raised by the recording ``execute`` once it has seen the parameters."""


@pytest.fixture
def executed(monkeypatch):
    """Every ``execute`` call as ``(experiment, params, quick)``; none runs."""
    calls = []

    def execute(self, params=None, quick=False):
        calls.append((self.name, dict(params or {}), quick))
        raise _Stop

    monkeypatch.setattr(ExperimentDefinition, "execute", execute)
    return calls


def wrong_product_at_16_bits(monkeypatch):
    """Make the analytical tier's 16-bit products one too high."""
    original = AnalyticalModSRAM.multiply

    def multiply(self, a, b, modulus):
        result = original(self, a, b, modulus)
        if self.config.bitwidth != 16:
            return result
        return dataclasses.replace(result, product=result.product + 1)

    monkeypatch.setattr(AnalyticalModSRAM, "multiply", multiply)


class TestStartup:
    @pytest.mark.parametrize("argv", (["--version"], ["backends"]))
    def test_no_exhibit_layer_loads(self, argv):
        script = "\n".join([
            "import sys",
            "from repro.cli import main",
            "try:",
            f"    main({argv!r})",
            "except SystemExit:",
            "    pass",
            "print(sorted(name for name in sys.modules if name.startswith('repro')))",
        ])
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=_environment(),
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        loaded = ast.literal_eval(completed.stdout.strip().splitlines()[-1])
        assert "repro.cli" in loaded
        for layer in LAZY_LAYERS:
            assert not [
                name for name in loaded
                if name == layer or name.startswith(layer + ".")
            ], f"{argv} loaded {layer}"

    def test_dse_loads_no_exhibit(self):
        script = (
            "import sys, repro.dse; "
            "print(sorted(name for name in sys.modules if name.startswith('repro')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=_environment(),
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        loaded = ast.literal_eval(completed.stdout.strip().splitlines()[-1])
        assert "repro.dse" in loaded
        assert not [
            name for name in loaded
            if name == "repro.analysis" or name.startswith("repro.analysis.")
        ]


class TestEveryParameterIsAFlag:
    @pytest.mark.parametrize("words,experiment,name", _shortcut_parameters())
    def test_shortcut_accepts_the_parameter(
        self, executed, tmp_path, words, experiment, name
    ):
        if (experiment, name) == ("dse", "spec"):
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(SMALL_SPEC.to_dict()))
            argv, expected = [str(path)], load_spec(str(path)).to_dict()
        else:
            text, expected = _flag_value(get_experiment(experiment).defaults[name])
            argv = ["--" + name.replace("_", "-"), text]
        with pytest.raises(_Stop):
            main(list(words) + argv)
        assert executed == [(experiment, {name: expected}, False)]

    @pytest.mark.parametrize("words,experiment", SHORTCUTS.items())
    def test_quick_is_passed_once_to_execute(self, executed, words, experiment):
        with pytest.raises(_Stop):
            main(list(words) + ["--quick"])
        assert executed == [(experiment, {}, True)]


class TestOneOutput:
    @pytest.mark.parametrize("words,experiment", SHORTCUTS.items())
    def test_shortcut_prints_the_experiment_envelope(
        self, capsys, words, experiment
    ):
        assert main(list(words) + ["--quick", "--json"]) == 0
        shortcut = json.loads(capsys.readouterr().out)
        assert main(["experiment", "run", experiment, "--quick", "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert set(shortcut) == set(direct) == {
            "experiment", "params", "payload", "elapsed_seconds"
        }
        assert shortcut["experiment"] == direct["experiment"] == experiment
        assert shortcut["params"] == direct["params"]
        assert set(shortcut["payload"]) == set(direct["payload"])

    @pytest.mark.parametrize("argv", (
        ["experiment", "run", "chip-scaling", "--set", "macro_counts=1,4"],
        ["chip", "--macro-counts", "1,4"],
    ))
    def test_a_list_value_is_comma_separated(self, capsys, argv):
        assert main(argv + ["--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["macro_counts"] == [1, 4]
        assert [point["macros"] for point in data["payload"]["points"]] == [1, 4]

    def test_one_value_fills_a_list_parameter(self, capsys):
        argv = ["experiment", "run", "hdl-cosim", "--set", "bitwidths=16",
                "--quick", "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["bitwidths"] == [16]
        assert [row["bitwidth"] for row in data["payload"]["rows"]] == [16]


class TestMalformedValues:
    @pytest.mark.parametrize("experiment,assignment", (
        ("hdl-cosim", "cases=abc"),
        ("chip-scaling", "bitwidth=abc"),
    ))
    def test_an_error_line_and_no_traceback(self, experiment, assignment):
        completed = _repro("experiment", "run", experiment, "--set", assignment)
        assert completed.returncode != 0
        lines = (completed.stdout + completed.stderr).splitlines()
        assert any(line.startswith("error:") for line in lines), lines
        assert "Traceback" not in completed.stderr


class TestVerdictExitStatus:
    def test_headline_exits_1_when_a_claim_fails(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.analysis.headline.PAPER_AREA_MM2", 1.0)
        assert main(["experiment", "run", "headline", "--quick"]) == 1
        assert "macro area" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", (
        ["experiment", "run", "hdl-cosim", "--set", "bitwidths=[16]",
         "--set", "cases=2"],
        ["hdl", "cosim", "--bitwidths", "16", "--cases", "2"],
    ))
    def test_hdl_cosim_exits_1_on_a_disagreement(self, monkeypatch, capsys, argv):
        wrong_product_at_16_bits(monkeypatch)
        assert main(argv) == 1
        assert "verdict: DISAGREE" in capsys.readouterr().out

    def test_a_sweep_exits_1_when_one_point_fails(self, monkeypatch, capsys):
        wrong_product_at_16_bits(monkeypatch)
        argv = ["experiment", "sweep", "hdl-cosim", "--axis", "bitwidths=16,24",
                "--set", "cases=2"]
        assert main(argv) == 1
        assert "computed 2 points" in capsys.readouterr().out


class TestClosedPipe:
    @pytest.mark.parametrize("argv", (
        ["experiment", "list"],
        # Larger than a pipe's buffer, so the write meets the closed pipe.
        ["batch", "--count", "4096", "--backend", "schoolbook", "--json"],
    ))
    def test_reading_one_line_ends_quietly(self, argv):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_environment(),
        )
        assert process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        process.wait(timeout=120)
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
