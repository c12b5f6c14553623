"""Tests for the WorkloadGraph core: construction, levels, views."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workloads import Ref, WorkloadGraph


def diamond() -> WorkloadGraph:
    """a -> (b, c) -> d: the smallest graph with real parallelism."""
    graph = WorkloadGraph("diamond")
    a = graph.add("a")
    b = graph.add("b", deps=[a])
    c = graph.add("c", deps=[a])
    graph.add("d", deps=[b, c])
    return graph


class TestConstruction:
    def test_insertion_is_topological(self):
        graph = diamond()
        assert len(graph) == 4
        for node in graph.nodes:
            assert all(dep < node.index for dep in node.deps)

    def test_forward_dependency_is_rejected(self):
        graph = WorkloadGraph()
        graph.add("a")
        with pytest.raises(ConfigurationError, match="not an earlier node"):
            graph.add("b", deps=[5])

    def test_self_dependency_is_rejected(self):
        graph = WorkloadGraph()
        with pytest.raises(ConfigurationError):
            graph.add("a", deps=[0])

    def test_operand_refs_become_deps(self):
        graph = WorkloadGraph()
        a = graph.add("a", a=3, b=5)
        b = graph.add("b", a=Ref(a), b=7)
        assert graph.nodes[b].deps == (a,)
        assert graph.executable

    def test_metadata_round_trips(self):
        graph = WorkloadGraph()
        index = graph.add(
            "key", tag="op", field_name="bn254.base", priority=3
        )
        node = graph.nodes[index]
        assert node.tag == "op"
        assert node.field_name == "bn254.base"
        assert node.priority == 3


class TestStructure:
    def test_levels_partition_the_nodes(self):
        graph = diamond()
        levels = graph.topological_levels()
        assert levels == [[0], [1, 2], [3]]
        assert graph.depth == 3
        assert graph.width == 2
        assert graph.parallelism == pytest.approx(4 / 3)

    def test_sinks(self):
        assert diamond().sinks() == [3]

    def test_dependents_inverts_deps(self):
        graph = diamond()
        assert graph.dependents() == [[1, 2], [3], [3], []]

    def test_empty_graph(self):
        graph = WorkloadGraph()
        assert graph.depth == 0
        assert graph.width == 0
        assert graph.parallelism == 0.0
        assert not graph.executable
        assert graph.nodes == ()

    def test_executable_requires_all_operands(self):
        graph = WorkloadGraph()
        graph.add("a", a=1, b=2)
        assert graph.executable
        graph.add("b")  # structural node
        assert not graph.executable


class TestViews:
    def test_nodes_keep_insertion_order(self):
        assert [node.multiplicand for node in diamond().nodes] == ["a", "b", "c", "d"]

    def test_linearized_is_a_chain(self):
        chain = diamond().linearized()
        assert chain.depth == len(chain) == 4
        assert chain.width == 1
        for node in chain.nodes:
            expected = (node.index - 1,) if node.index else ()
            assert node.deps == expected

    def test_linearized_preserves_payload(self):
        graph = WorkloadGraph()
        a = graph.add("a", a=3, b=5, tag="t", priority=1)
        graph.add("b", a=Ref(a), b=7)
        chain = graph.linearized()
        assert chain.nodes[0].a == 3 and chain.nodes[0].tag == "t"
        assert chain.nodes[1].a == Ref(a)
        assert chain.executable

    def test_as_dict_summary(self):
        data = diamond().as_dict()
        assert data["nodes"] == 4
        assert data["edges"] == 4
        assert data["depth"] == 3
        assert data["width"] == 2
        assert data["lut_groups"] == 4
        assert data["executable"] is False


#: Client-written payload nodes ``from_payload`` must reject, with the
#: field its error names.  Each reached a fleet worker as an uncaught
#: exception (no answer), or as a silently coerced operand.
MALFORMED_NODES = {
    "missing multiplicand": ({"deps": [], "a": 2, "b": 3}, "multiplicand"),
    "string dep": ({"multiplicand": "x", "deps": ["a"]}, "deps"),
    "non-object node": (1, "must be an object"),
    "string ref": ({"multiplicand": "x", "a": {"ref": "zero"}, "b": 3}, "'a'"),
    "float operand": ({"multiplicand": "x", "a": 2.9, "b": 3}, "'a'"),
    "string operand": ({"multiplicand": "x", "a": 2, "b": "5"}, "'b'"),
    "bool operand": ({"multiplicand": "x", "a": True, "b": 3}, "'a'"),
    "string priority": ({"multiplicand": "x", "priority": "high"}, "priority"),
}


class TestPayload:
    def test_round_trip(self):
        graph = WorkloadGraph("g")
        a = graph.add("a", a=3, b=5, tag="t", field_name="f", priority=2)
        graph.add("b", deps=[a], a=Ref(a), b=None)
        rebuilt = WorkloadGraph.from_payload(graph.to_payload())
        assert rebuilt.name == "g"
        assert rebuilt.nodes == graph.nodes

    @pytest.mark.parametrize("shape", sorted(MALFORMED_NODES))
    def test_malformed_node_names_its_index_and_field(self, shape):
        node, field = MALFORMED_NODES[shape]
        good = {"multiplicand": "ok", "a": 2, "b": 3}
        with pytest.raises(ConfigurationError, match="graph node 1") as error:
            WorkloadGraph.from_payload({"nodes": [good, node]})
        assert field in str(error.value)

    @pytest.mark.parametrize("nodes", [None, "abc", {"0": {}}])
    def test_nodes_must_be_a_list(self, nodes):
        with pytest.raises(ConfigurationError, match="list of nodes"):
            WorkloadGraph.from_payload({"nodes": nodes})
