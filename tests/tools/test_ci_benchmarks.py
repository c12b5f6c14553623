"""What CI's workflow runs: every benchmark file, and the reach tool's list.

A ``benchmarks/bench_*.py`` file that no CI step names gates nothing, yet
API changes still have to keep it passing.  ``tools/reach.py`` keeps its
own copy of CI's ``python -m repro`` smoke commands as kept paths, so the
two lists must name the same commands.  The workflow is read as text
(CI installs no YAML parser): a step's command is the value of its
``run:`` key, either inline or the indented block after ``run: |``.
"""

from __future__ import annotations

import importlib.util
import os
import re
import shlex
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")

_RUN_KEY = re.compile(r"^(\s*)(?:-\s+)?run:\s*(.*)$")


def _run_commands(lines):
    """The text of every ``run:`` command in the workflow, one per step."""
    commands = []
    index = 0
    while index < len(lines):
        match = _RUN_KEY.match(lines[index])
        index += 1
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if not value.startswith("|"):
            commands.append(value)
            continue
        block = []
        while index < len(lines) and (
            not lines[index].strip()
            or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            block.append(lines[index])
            index += 1
        commands.append("\n".join(block))
    return commands


def test_every_benchmark_file_is_run_by_ci():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        commands = "\n".join(_run_commands(handle.read().splitlines()))
    benchmarks = sorted(
        name
        for name in os.listdir(os.path.join(REPO_ROOT, "benchmarks"))
        if name.startswith("bench_") and name.endswith(".py")
    )
    assert benchmarks
    unrun = [name for name in benchmarks if f"benchmarks/{name}" not in commands]
    assert not unrun, f"no CI step runs {unrun}"


_LOOP = re.compile(r"^\s*for (\w+) in ([^;]+); do\s*$")
_REPRO = re.compile(r"\bpython3? -m repro(?:\.cli)?(\s.*|$)")


def _expand_loops(block):
    """The lines of a ``run:`` block, each ``for V in ...; do`` loop unrolled."""
    lines, expanded, index = block.splitlines(), [], 0
    while index < len(lines):
        loop = _LOOP.match(lines[index])
        index += 1
        if not loop:
            expanded.append(lines[index - 1])
            continue
        end = next(i for i in range(index, len(lines)) if lines[i].strip() == "done")
        for value in loop.group(2).split():
            expanded += [
                line.replace(f'"${loop.group(1)}"', value) for line in lines[index:end]
            ]
        index = end + 1
    return expanded


def _repro_commands(commands):
    """Every ``python -m repro`` command's arguments, redirection dropped."""
    found = []
    for command in commands:
        for line in _expand_loops(command):
            match = _REPRO.search(line)
            if match:
                args = shlex.split(match.group(1))
                found.append(tuple(args[: args.index(">")] if ">" in args else args))
    return found


def test_reach_tool_traces_every_ci_smoke_command():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        ci = _repro_commands(_run_commands(handle.read().splitlines()))
    path = os.path.join(REPO_ROOT, "tools", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = reach  # dataclasses resolve their module
    spec.loader.exec_module(reach)
    assert ("chip", "--workload", "msm", "--macro-counts", "1,4", "--quick") in ci
    assert sorted(set(ci) - set(reach.CI_SMOKE)) == [], "CI runs these; reach.py does not"
    assert sorted(set(reach.CI_SMOKE) - set(ci)) == [], "reach.py lists these; CI does not"
