"""Tests for the serving-throughput experiment and the serve/submit CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.serving import reproduce_serving_throughput
from repro.cli import main
from repro.experiments import available_experiments, get_experiment


QUICK = dict(
    backend="montgomery",
    tenants=2,
    requests=4,
    pairs_per_request=4,
    graph_every=4,
    graph_leaves=8,
)


class TestServingExperiment:
    def test_registered_with_quick_overrides(self):
        assert "serving-throughput" in available_experiments()
        definition = get_experiment("serving-throughput")
        assert definition.quick_overrides
        assert "tenants" in definition.sweep_axes or "backend" in definition.sweep_axes

    def test_reproduce_verifies_all_traffic(self):
        result = reproduce_serving_throughput(**QUICK)
        assert result.completed_requests == 8
        assert result.verified_requests == 8
        assert result.rejected_requests == 0
        assert result.backend == "montgomery"
        assert result.batches > 0
        assert result.requests_per_second > 0
        assert result.coalescing_factor >= 1.0

    def test_result_round_trips_through_json(self):
        result = reproduce_serving_throughput(**QUICK)
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_render_mentions_the_key_metrics(self):
        result = reproduce_serving_throughput(**QUICK)
        text = result.render()
        assert "Async serving layer on montgomery" in text
        assert "coalescing factor" in text
        assert "context-cache hit rate" in text

    def test_experiment_executes_it_quick(self):
        result = get_experiment("serving-throughput").execute(
            {"backend": "montgomery"}, quick=True
        )
        payload = result.to_dict()
        assert payload["experiment"] == "serving-throughput"
        served = payload["payload"]
        assert served["verified_requests"] == served["completed_requests"] > 0


class TestServeCli:
    def test_self_test_quick_text(self, capsys):
        assert main(["serve", "--quick", "--backend", "montgomery"]) == 0
        output = capsys.readouterr().out
        assert "completed / verified requests" in output
        assert "context-cache hit rate" in output

    def test_self_test_json(self, capsys):
        assert main(["serve", "--quick", "--backend", "montgomery", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["rejected_requests"] == 0
        assert payload["verified_requests"] == payload["completed_requests"] > 0
        assert "cache_hit_rate" in payload


class TestSubmitCli:
    def test_product_tree_submission(self, capsys):
        assert main([
            "submit", "--workload", "product-tree", "--count", "8",
            "--backend", "montgomery", "--modulus", "997", "--seed", "7",
        ]) == 0
        output = capsys.readouterr().out
        assert "product-tree" in output
        assert "result" in output

    def test_batch_submission_json_reproduces_products(self, capsys):
        import random

        modulus, seed, count = 65521, 11, 4
        assert main([
            "submit", "--workload", "batch", "--count", str(count),
            "--backend", "barrett", "--modulus", str(modulus),
            "--seed", str(seed), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(modulus), rng.randrange(modulus))
            for _ in range(count)
        ]
        assert payload["values"] == [a * b % modulus for a, b in pairs]
        assert payload["server"]["completed_requests"] == 1

    def test_count_validation(self, capsys):
        assert main(["submit", "--count", "1"]) == 2
        assert "at least 2" in capsys.readouterr().out

    def test_single_pair_batch_is_allowed(self, capsys):
        assert main([
            "submit", "--workload", "batch", "--count", "1",
            "--backend", "schoolbook", "--modulus", "997", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["values"]) == 1
