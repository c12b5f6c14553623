"""Tests for level-batched graph execution through the Engine."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.errors import ConfigurationError
from repro.workloads import (
    Ref,
    WorkloadGraph,
    execute_graph,
    ntt_graph,
    product_tree_graph,
)


def tree_reference(values, modulus):
    product = 1
    for value in values:
        product = product * value % modulus
    return product


class TestExecuteGraph:
    def test_product_tree_matches_reference(self, rng):
        modulus = 997
        values = [rng.randrange(1, modulus) for _ in range(32)]
        engine = Engine(backend="montgomery", modulus=modulus)
        execution = execute_graph(engine, product_tree_graph(values))
        assert execution.results == (tree_reference(values, modulus),)
        assert execution.batches == 5  # log2(32) levels
        assert execution.max_batch == 16
        assert execution.backend == "montgomery"

    def test_batched_equals_sequential(self, rng):
        modulus = 65521
        values = [rng.randrange(1, modulus) for _ in range(16)]
        graph = product_tree_graph(values)
        level_batched = execute_graph(
            Engine(backend="barrett", modulus=modulus), graph
        )
        sequential = execute_graph(
            Engine(backend="barrett", modulus=modulus), graph.linearized()
        )
        assert level_batched.values == sequential.values
        # The chain degenerates to one node per batch.
        assert sequential.batches == len(graph)

    def test_constants_are_range_reduced(self):
        engine = Engine(backend="schoolbook", modulus=97)
        graph = WorkloadGraph("raw")
        a = graph.add("n0", a=1000, b=2000)  # leaves exceed the modulus
        graph.add("n1", a=Ref(a), b=3000)
        execution = execute_graph(engine, graph)
        expected = (1000 % 97) * (2000 % 97) % 97
        expected = expected * (3000 % 97) % 97
        assert execution.values[-1] == expected

    def test_structural_graph_is_rejected(self):
        engine = Engine(backend="schoolbook", modulus=97)
        with pytest.raises(ConfigurationError, match="structural"):
            execute_graph(engine, ntt_graph(8))

    def test_modeled_cycles_accumulate(self):
        engine = Engine(backend="r4csa-lut", modulus=0xFFF1)
        graph = product_tree_graph([3, 5, 7, 11])
        execution = execute_graph(engine, graph)
        per_call = engine.context().modeled_cycles_per_multiply
        assert execution.modeled_cycles == per_call * len(graph)

    def test_as_dict_is_json_clean(self, rng):
        import json

        engine = Engine(backend="schoolbook", modulus=251)
        execution = execute_graph(engine, product_tree_graph([2, 3, 5, 7]))
        payload = json.loads(json.dumps(execution.as_dict()))
        assert payload["nodes"] == 3
        assert payload["results"] == [2 * 3 * 5 * 7 % 251]
