"""The cluster loadtest's machine-readable contract.

``repro cluster loadtest --json`` (and ``run_loadtest``) feed CI smoke
checks and the ``kill_recovery`` benchmark section, so the report shape
is a contract: this module locks it against the same schema
``tools/check_bench.py`` validates the committed artifacts with — one
source of truth for both prose (docs/artifacts.md) and machines.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os

import pytest

from repro.cluster import run_loadtest
from repro.engine import EngineSpec

pytestmark = pytest.mark.slow

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _loadtest_schema():
    path = os.path.join(REPO_ROOT, "tools", "check_bench.py")
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, module.LOADTEST_REPORT


@pytest.fixture(scope="module")
def report():
    """One quick single-worker loadtest shared by every assertion."""
    return asyncio.run(
        run_loadtest(workers=1, duration_s=0.6, rate=10.0, seed=7, quick=True)
    )


class TestReportShape:
    def test_report_matches_the_check_bench_schema(self, report):
        checker, schema = _loadtest_schema()
        errors = []
        checker._validate(schema, report, "report", errors)
        assert not errors, errors

    def test_report_is_json_serializable(self, report):
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped["sent"] == report["sent"]
        assert round_tripped["latency"]["p99_ms"] == pytest.approx(
            report["latency"]["p99_ms"]
        )

    def test_healthy_run_has_no_losses(self, report):
        assert report["lost"] == 0
        assert report["mismatches"] == 0
        assert report["workers"] == 1
        assert report["kill_worker"] is False

    def test_workers_run_the_default_spec_backend(self, report):
        # The spec default flows through the welcome frame to every node.
        per_node = report["cluster"]["per_node"]
        assert per_node, "rollup lists no nodes"
        for node in per_node.values():
            heartbeat = node.get("heartbeat") or {}
            if "backend" in heartbeat:
                assert heartbeat["backend"] == EngineSpec().backend


class TestCliOutput:
    def test_output_writes_the_json_report(self, tmp_path, capsys):
        from repro.cli import main

        destination = tmp_path / "loadtest.json"
        code = main(
            [
                "cluster",
                "loadtest",
                "--workers",
                "1",
                "--duration",
                "0.6",
                "--rate",
                "10",
                "--quick",
                "--output",
                str(destination),
            ]
        )
        assert code == 0
        human = capsys.readouterr().out
        assert "verdict" in human  # the human report still prints
        written = json.loads(destination.read_text())
        checker, schema = _loadtest_schema()
        errors = []
        checker._validate(schema, written, "output", errors)
        assert not errors, errors
