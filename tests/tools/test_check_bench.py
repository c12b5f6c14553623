"""tools/check_bench.py guards the benchmark artifact schemas.

The ``BENCH_*.json`` artifacts are gitignored (CI regenerates and
uploads them every run), so these tests are hermetic: they synthesize
minimal schema-conforming payloads instead of reading artifacts that
only exist after a local benchmark run — any artifacts that *are*
present in the repo root get validated opportunistically.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _load_checker():
    path = os.path.join(REPO_ROOT, "tools", "check_bench.py")
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checker():
    return _load_checker()


def _synthesize(checker, spec):
    """A minimal payload satisfying ``spec`` (the schema, inverted)."""
    if isinstance(spec, checker.Value):
        return spec.expected
    if isinstance(spec, dict):
        return {key: _synthesize(checker, sub) for key, sub in spec.items()}
    if isinstance(spec, list):
        return [_synthesize(checker, spec[0])]
    if spec is bool:
        return True
    if spec is int:
        return 1
    if spec is dict:
        return {}
    if spec is list:
        return []
    if spec is str:
        return "x"
    return 1.5  # NUMBER / float leaves


@pytest.fixture(scope="module")
def cluster_payload(checker):
    return _synthesize(checker, checker.SCHEMAS["BENCH_cluster.json"])


class TestSchemas:
    def test_every_schema_names_a_real_benchmark(self, checker):
        for name in checker.SCHEMAS:
            stem = name[len("BENCH_"):-len(".json")]
            script = os.path.join(REPO_ROOT, "benchmarks", f"bench_{stem}.py")
            assert os.path.exists(script), (
                f"{name} schema has no benchmarks/bench_{stem}.py emitter"
            )

    def test_synthesized_payloads_validate(self, checker, tmp_path):
        """The synthesizer and the validator agree on every schema."""
        for name, schema in checker.SCHEMAS.items():
            path = tmp_path / name
            path.write_text(json.dumps(_synthesize(checker, schema)))
            assert not checker.check_file(str(path))

    def test_artifacts_present_in_the_repo_root_validate(self, checker):
        present = sorted(
            name
            for name in os.listdir(REPO_ROOT)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        if not present:
            pytest.skip("no BENCH_*.json artifacts written locally")
        for name in present:
            errors = checker.check_file(os.path.join(REPO_ROOT, name))
            assert not errors, f"{name}: {errors}"


class TestValidator:
    def test_missing_key_is_reported_with_its_path(self, checker, tmp_path):
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps({"benchmark": "cluster"}))
        errors = checker.check_file(str(path))
        assert any("node_scaling: missing" in error for error in errors)

    def test_wrong_benchmark_name_fails(self, checker, tmp_path, cluster_payload):
        payload = dict(cluster_payload, benchmark="serve")
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("expected 'cluster'" in error for error in errors)

    def test_type_drift_fails(self, checker, tmp_path, cluster_payload):
        payload = json.loads(json.dumps(cluster_payload))
        payload["kill_recovery"]["lost"] = "0"  # stringly-typed drift
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("lost: expected int" in error for error in errors)

    def test_bool_is_not_a_number(self, checker, tmp_path, cluster_payload):
        payload = json.loads(json.dumps(cluster_payload))
        payload["kill_recovery"]["lost"] = False  # bool passes isinstance(int)
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("expected number, got bool" in error for error in errors)

    def test_cluster_scaling_records_every_pass(
        self, checker, tmp_path, cluster_payload
    ):
        """The gated median must come with the passes it was taken over."""
        payload = json.loads(json.dumps(cluster_payload))
        payload["node_scaling"]["pair_speedups"] = []
        del payload["node_scaling"]["points"][0]["pass"]
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("pair_speedups" in error for error in errors)
        assert any("pass: missing" in error for error in errors)

    def test_hdl_agreement_regression_fails(self, checker, tmp_path):
        """A cosim mismatch can never slip through the schema gate."""
        payload = _synthesize(checker, checker.SCHEMAS["BENCH_hdl.json"])
        payload["agreement"]["rows"][0]["cycles_match"] = False
        path = tmp_path / "BENCH_hdl.json"
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("cycles_match" in error for error in errors)
        payload["agreement"]["rows"][0]["cycles_match"] = True
        payload["paper_point"]["ok"] = False
        path.write_text(json.dumps(payload))
        errors = checker.check_file(str(path))
        assert any("paper_point.ok" in error for error in errors)

    def test_unknown_artifact_name_fails(self, checker, tmp_path):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text("{}")
        errors = checker.check_file(str(path))
        assert errors and "no schema registered" in errors[0]

    def test_unreadable_json_fails(self, checker, tmp_path):
        path = tmp_path / "BENCH_cluster.json"
        path.write_text("{not json")
        errors = checker.check_file(str(path))
        assert errors and "unreadable" in errors[0]

    def test_main_exit_codes(self, checker, tmp_path, capsys, cluster_payload):
        good = tmp_path / "BENCH_cluster.json"
        good.write_text(json.dumps(cluster_payload))
        assert checker.main([str(good)]) == 0
        bad = tmp_path / "bad" / "BENCH_cluster.json"
        bad.parent.mkdir()
        bad.write_text("{}")
        assert checker.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok   BENCH_cluster.json" in out
        assert "FAIL" in out
