"""tools/reach.py reports the functions no kept command runs, and gates them."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

TOY = (
    "def called():\n"
    "    return 1\n"
    "\n"
    "\n"
    "def uncalled():\n"
    "    return 2\n"
)


def _load_reach():
    path = os.path.join(REPO_ROOT, "tools", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def _package(tmp_path, source=TOY):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(source)
    return package


def test_only_the_uncalled_function_is_reported(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    kept = [("call one", ("-c", "import toy; toy.called()"))]

    summary, outcomes = reach.measure(str(tmp_path), str(package), kept)

    assert [outcome.returncode for outcome in outcomes] == [0]
    assert [entry["name"] for entry in summary["unreached"]] == ["uncalled"]
    assert summary["totals"]["kept"] == {
        "functions": 2,
        "lines": 4,
        "unreached_functions": 1,
        "unreached_lines": 2,
    }


def test_a_decorated_function_is_keyed_by_its_first_decorator(tmp_path):
    reach = _load_reach()
    package = _package(
        tmp_path,
        "import functools\n"
        "\n"
        "\n"
        "def traced(function):\n"
        "    @functools.wraps(function)\n"
        "    def wrapper(*args):\n"
        "        return function(*args)\n"
        "    return wrapper\n"
        "\n"
        "\n"
        "@traced\n"
        "def decorated():\n"
        "    return 1\n",
    )
    listed = [(f.name, f.line, f.lines) for f in reach.functions(str(package))]
    assert listed == [("traced", 4, 5), ("decorated", 11, 3)]

    kept = [("call", ("-c", "import toy; toy.decorated()"))]
    summary, _ = reach.measure(str(tmp_path), str(package), kept)
    assert summary["unreached"] == []


def test_methods_carry_their_class_and_abstract_methods_are_left_out(tmp_path):
    reach = _load_reach()
    package = _package(
        tmp_path,
        "import abc\n"
        "\n"
        "\n"
        "class Shape(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def area(self):\n"
        "        ...\n"
        "\n"
        "    def describe(self):\n"
        "        return 'shape'\n",
    )
    assert [function.name for function in reach.functions(str(package))] == [
        "Shape.describe"
    ]


def test_spawned_processes_are_traced(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    script = (
        "import subprocess, sys, toy; toy.called(); "
        "subprocess.run([sys.executable, '-c', 'import toy; toy.uncalled()'], "
        "check=True)"
    )
    kept = [("spawn", ("-c", script))]

    summary, outcomes = reach.measure(str(tmp_path), str(package), kept)

    assert [outcome.returncode for outcome in outcomes] == [0]
    assert summary["unreached"] == []


def test_a_terminated_process_still_records_its_reach(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    script = "import os, signal, toy; toy.called(); os.kill(os.getpid(), signal.SIGTERM)"
    kept = [("terminate", ("-c", script))]

    summary, outcomes = reach.measure(str(tmp_path), str(package), kept)

    assert [outcome.returncode for outcome in outcomes] == [-15]
    assert [entry["name"] for entry in summary["unreached"]] == ["uncalled"]


def test_examples_count_on_top_of_the_kept_paths(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    kept = [("kept", ("-c", "import toy; toy.called()"))]
    examples = [("example", ("-c", "import toy; toy.uncalled()"))]

    summary, outcomes = reach.measure(str(tmp_path), str(package), kept, examples)

    assert len(outcomes) == 2
    assert summary["unreached"] == [
        {
            "path": os.path.join("toy", "__init__.py"),
            "line": 5,
            "name": "uncalled",
            "lines": 2,
            "examples": True,
        }
    ]
    assert summary["totals"]["with_examples"]["unreached_functions"] == 0


def test_a_failed_command_is_named_in_the_report(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    kept = [("broken", ("-c", "import sys, toy; toy.called(); sys.exit(3)"))]

    summary, outcomes = reach.measure(str(tmp_path), str(package), kept)
    text = reach.render(summary, outcomes)

    assert [outcome.returncode for outcome in outcomes] == [3]
    assert "FAILED: broken (exit 3)" in text
    assert "  toy/__init__.py: 1 of 2, 2 of 4" in text
    assert "kept paths: 2 of 4 lines never run (1 of 2 functions)" in text


def test_a_never_run_function_fails_the_gate_unless_allowed(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    kept = [("call one", ("-c", "import toy; toy.called()"))]
    summary, _ = reach.measure(str(tmp_path), str(package), kept)
    key = os.path.join("toy", "__init__.py") + "::uncalled"

    assert reach.check(str(package), summary, {}) == [f"never run, not allowed: {key}"]
    assert reach.check(str(package), summary, {key: "a reason"}) == []


def test_an_allowed_function_that_runs_or_is_gone_fails_the_gate(tmp_path):
    reach = _load_reach()
    package = _package(tmp_path)
    kept = [("call one", ("-c", "import toy; toy.called()"))]
    examples = [("example", ("-c", "import toy; toy.uncalled()"))]
    summary, _ = reach.measure(str(tmp_path), str(package), kept, examples)
    toy = os.path.join("toy", "__init__.py")
    allowed = {f"{toy}::called": "r", f"{toy}::uncalled": "r", f"{toy}::deleted": "r"}

    assert reach.check(str(package), summary, allowed) == [
        f"allowed, gone: {toy}::deleted",
        f"allowed, runs: {toy}::called",
        f"allowed, runs: {toy}::uncalled",
    ]


def test_the_allow_list_groups_entries_under_reasons(tmp_path):
    reach = _load_reach()
    path = tmp_path / "allowed.txt"
    path.write_text(
        "# a comment\n\n## debug aids\ntoy/a.py::A.__repr__\n"
        "## examples only\ntoy/b.py::f\ntoy/b.py::g\n"
    )
    assert reach.read_allowed(str(path)) == {
        "toy/a.py::A.__repr__": "debug aids",
        "toy/b.py::f": "examples only",
        "toy/b.py::g": "examples only",
    }
    path.write_text("toy/a.py::f\n")
    with pytest.raises(ValueError, match="under no reason"):
        reach.read_allowed(str(path))


def test_each_reason_tallies_its_entries_and_never_run_lines(tmp_path):
    reach = _load_reach()
    source = TOY + "\n\ndef spare():\n    x = 3\n    return x\n"
    package = _package(tmp_path, source)
    kept = [("call one", ("-c", "import toy; toy.called()"))]
    summary, outcomes = reach.measure(str(tmp_path), str(package), kept)
    toy = os.path.join("toy", "__init__.py")
    allowed = {
        f"{toy}::uncalled": "unit tests only",
        f"{toy}::spare": "unit tests only",
        f"{toy}::called": "debug aids",
    }

    summary["reasons"] = reach.tally_reasons(summary, allowed)

    assert summary["reasons"] == [
        {"reason": "unit tests only", "entries": 2, "lines": 5},
        {"reason": "debug aids", "entries": 1, "lines": 0},
    ]
    text = reach.render(summary, outcomes)
    assert "Allow-list, per reason (entries, never-run lines)" in text
    assert "     2      5  unit tests only" in text
    assert "     1      0  debug aids" in text


def test_every_allowed_function_exists_under_a_reason():
    """The committed list names functions of the package (the gate's cheap half)."""
    reach = _load_reach()
    package = os.path.join(REPO_ROOT, "src", "repro")
    allowed = reach.read_allowed(reach.ALLOWED)
    problems = reach.check(package, {"unreached": []}, allowed)
    assert allowed
    assert [p for p in problems if p.startswith("allowed, gone")] == []
