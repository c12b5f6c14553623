"""Property tests: the state a WorkloadGraph keeps as nodes are added.

``add`` records each node's level and whether it lacks an operand, so
``topological_levels()``, ``depth``, ``width`` and ``executable`` read
kept state instead of passing over every node.  Random DAGs, built
through ``add``, ``from_payload`` and ``linearized``, must agree with
those quantities recomputed from the nodes alone.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workloads import Ref, WorkloadGraph


OPERANDS = st.one_of(
    st.none(), st.integers(0, 1 << 64), st.builds(Ref, st.integers(0, 1 << 16))
)

#: Up to 40 nodes, each a LUT key, up to three explicit dependencies, a
#: priority and two operands (missing, a constant or a reference).
#: Dependencies and references are drawn from a wide range and folded
#: onto the earlier nodes by ``build``.
NODES = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.lists(st.integers(0, 1 << 16), max_size=3),
        st.integers(-2, 2),
        OPERANDS,
        OPERANDS,
    ),
    max_size=40,
)


def fold(operand, index: int):
    """A drawn reference folded onto the nodes before ``index`` (node 0
    has none, so its reference becomes a missing operand)."""
    if not isinstance(operand, Ref):
        return operand
    return Ref(operand.node % index) if index else None


def build(nodes) -> WorkloadGraph:
    graph = WorkloadGraph("random")
    for index, (key, deps, priority, a, b) in enumerate(nodes):
        graph.add(
            f"k{key}",
            deps=[dep % index for dep in deps] if index else (),
            priority=priority,
            a=fold(a, index),
            b=fold(b, index),
        )
    return graph


VIEWS = {
    "add": lambda graph: graph,
    "from_payload": lambda graph: WorkloadGraph.from_payload(graph.to_payload()),
    "linearized": lambda graph: graph.linearized(),
}


def longest_path_levels(graph: WorkloadGraph) -> List[List[int]]:
    """The levels recomputed from scratch, one pass over every node."""
    level_of: List[int] = []
    levels: List[List[int]] = []
    for node in graph.nodes:
        level = max((level_of[dep] + 1 for dep in node.deps), default=0)
        level_of.append(level)
        if level == len(levels):
            levels.append([])
        levels[level].append(node.index)
    return levels


@pytest.mark.parametrize("view", sorted(VIEWS))
class TestKeptState:
    @settings(max_examples=30, deadline=None)
    @given(nodes=NODES)
    def test_levels_are_the_longest_path_levels(self, view, nodes):
        graph = VIEWS[view](build(nodes))
        levels = longest_path_levels(graph)
        assert graph.topological_levels() == levels
        assert graph.depth == len(levels)
        assert graph.width == max(map(len, levels), default=0)

    @settings(max_examples=30, deadline=None)
    @given(nodes=NODES)
    def test_executable_is_every_node_carrying_both_operands(self, view, nodes):
        graph = VIEWS[view](build(nodes))
        nodes = graph.nodes
        assert graph.executable == (
            bool(nodes)
            and all(node.a is not None and node.b is not None for node in nodes)
        )

    @settings(max_examples=30, deadline=None)
    @given(nodes=NODES)
    def test_sinks_and_dependents_match_their_definitions(self, view, nodes):
        graph = VIEWS[view](build(nodes))
        nodes = graph.nodes
        assert graph.dependents() == [
            [node.index for node in nodes if dep in node.deps]
            for dep in range(len(nodes))
        ]
        assert graph.sinks() == [
            index
            for index in range(len(nodes))
            if not any(index in node.deps for node in nodes)
        ]

    @settings(max_examples=30, deadline=None)
    @given(nodes=NODES)
    def test_returned_levels_are_copies(self, view, nodes):
        graph = VIEWS[view](build(nodes))
        before = longest_path_levels(graph)
        levels = graph.topological_levels()
        for level in levels:
            level.append(-1)
        levels.append([-1])
        assert graph.topological_levels() == before

    @settings(max_examples=30, deadline=None)
    @given(nodes=NODES)
    def test_a_rejected_node_changes_nothing(self, view, nodes):
        graph = VIEWS[view](build(nodes))
        before = (graph.nodes, graph.topological_levels(), graph.executable)
        with pytest.raises(ConfigurationError, match="not an earlier node"):
            graph.add("late", a=Ref(len(graph)), b=None)
        assert (graph.nodes, graph.topological_levels(), graph.executable) == before
