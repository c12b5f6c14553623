"""Every benchmark file is run by a step of the CI workflow.

A ``benchmarks/bench_*.py`` file that no CI step names gates nothing, yet
API changes still have to keep it passing.  The workflow is read as text
(CI installs no YAML parser): a step's command is the value of its
``run:`` key, either inline or the indented block after ``run: |``.
"""

from __future__ import annotations

import os
import re

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
