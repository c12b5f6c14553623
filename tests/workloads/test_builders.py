"""Tests for the workload builders: pinned outputs and graph structure."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.errors import OperandRangeError
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.workloads import (
    ecdsa_sign_graph,
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_graph,
    ntt_jobs,
    product_tree_graph,
    scalar_multiplication_jobs,
)
from repro.workloads.builders import _graph, _template


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()[:16]


def jobs_digest(jobs):
    """(job count, digest of every job's multiplicand and tag)."""
    jobs = list(jobs)
    return len(jobs), _digest(f"{job.multiplicand}|{job.tag}\n" for job in jobs)


def graph_digest(graph) -> str:
    """Digest of every node's multiplicand, tag and dependency list."""
    return _digest(
        f"{node.multiplicand}|{node.tag}|{','.join(map(str, node.deps))}\n"
        for node in graph.nodes
    )


def point_operation_graph(sequence, tag):
    """One point operation of the builders' dependency model as a graph."""
    return _graph(tag, [(tag, tag, (), _template(sequence))], "")


#: (jobs view, graph view, job count, jobs digest, graph digest).  The
#: values were recorded when each workload still had a separate
#: hand-written job stream next to its graph builder, so both views keep
#: that exact order and those dependency lists.  Scalar multiplication
#: and the MSM have no graph view.
PINS = {
    "scalar-mult": (
        lambda: scalar_multiplication_jobs(48),
        None,
        648, "2111ab6ab282bffd", "6c48d00d674a4936",
    ),
    "ecdsa-sign": (
        lambda: ecdsa_sign_jobs(32, signatures=2),
        lambda: ecdsa_sign_graph(32, signatures=2),
        964, "b118f3666e94a521", "debadf7892f7aaac",
    ),
    "ntt": (
        lambda: ntt_jobs(128),
        lambda: ntt_graph(128),
        448, "e237787d5ec7a3c0", "f7144f968682c8b4",
    ),
    "msm": (
        lambda: msm_jobs(8, window_bits=2, scalar_bits=8),
        None,
        724, "8c092a8384d13d8e", "909d7c37bf558bf6",
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_jobs(self, name):
        jobs, _, count, digest, _ = PINS[name]
        assert jobs_digest(jobs()) == (count, digest)

    @pytest.mark.parametrize("name", ["ecdsa-sign", "ntt"])
    def test_graph(self, name):
        _, graph, count, digest, edges = PINS[name]
        built = graph()
        assert len(built) == count
        assert graph_digest(built) == edges
        assert jobs_digest(built.nodes) == (count, digest)


@pytest.mark.slow
def test_ntt_jobs_stream_in_constant_memory():
    """Consuming a 2^16-point NTT's 524,288 jobs never builds the graph."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in ntt_jobs(2**16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2**15 * 16
    assert peak < 8 * 2**20


class TestPointOperationStructure:
    def test_doubling_has_intra_op_parallelism(self):
        graph = point_operation_graph(DOUBLING_SEQUENCE, tag="dbl")
        # yy, xx and z3 are mutually independent: depth far below node count.
        assert graph.depth < len(graph)
        assert graph.width >= 3

    def test_mixed_addition_dependencies_follow_the_formula(self):
        graph = point_operation_graph(MIXED_ADDITION_SEQUENCE, tag="add")
        by_product = {
            name: graph.nodes[index]
            for index, (name, _, _) in enumerate(MIXED_ADDITION_SEQUENCE)
        }
        # hh = h^2 with h = u2 - x1: must depend on the u2 node.
        assert by_product["u2"].index in by_product["hh"].deps
        # t1 = r * (v_minus_x3) joins r (via s2), v, rr and hhh.
        assert by_product["s2"].index in by_product["t1"].deps
        assert by_product["v"].index in by_product["t1"].deps
        assert by_product["rr"].index in by_product["t1"].deps


class TestScalarMultiplicationStructure:
    def test_validation(self):
        with pytest.raises(OperandRangeError):
            list(scalar_multiplication_jobs(0))


class TestEcdsaStructure:
    def test_inversion_overlaps_the_ladder(self):
        graph = ecdsa_sign_graph(16)
        levels = graph.topological_levels()
        # The inversion chain starts at level 0 (independent of the ladder):
        # some level must contain both a ladder node and an inversion node.
        tags_at_level0 = {graph.nodes[index].tag for index in levels[0]}
        assert "inversion" in tags_at_level0
        assert any(tag.startswith("dbl[") for tag in tags_at_level0)

    def test_signatures_are_independent(self):
        one = ecdsa_sign_graph(16, signatures=1)
        four = ecdsa_sign_graph(16, signatures=4)
        # Same critical-path depth, four times the nodes: pure width.
        assert four.depth == one.depth
        assert len(four) == 4 * len(one)
        assert four.width == 4 * one.width

    def test_s_computation_joins_both_strands(self):
        graph = ecdsa_sign_graph(8)
        final = graph.nodes[-1]
        assert final.tag == "s-computation"
        assert len(final.deps) >= 2
        assert graph.sinks() == [final.index]

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            ecdsa_sign_graph(16, signatures=0)
        with pytest.raises(OperandRangeError):
            ecdsa_sign_graph(0)


class TestNttStructure:
    def test_levels_are_the_stages(self):
        size = 64
        graph = ntt_graph(size)
        levels = graph.topological_levels()
        assert len(levels) == 6  # log2(64)
        assert all(len(level) == size // 2 for level in levels)
        assert graph.width == size // 2

    def test_butterflies_depend_on_both_inputs(self):
        graph = ntt_graph(8)
        levels = graph.topological_levels()
        for index in levels[1]:
            assert len(graph.nodes[index].deps) == 2

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            ntt_graph(3)
        with pytest.raises(OperandRangeError):
            ntt_graph(0)


class TestMsmStructure:
    def test_validation(self):
        with pytest.raises(OperandRangeError):
            list(msm_jobs(0))
        with pytest.raises(OperandRangeError):
            list(msm_jobs(8, scalar_bits=0))


class TestProductTree:
    def test_structure_and_executability(self):
        graph = product_tree_graph(range(2, 18))  # 16 leaves
        assert len(graph) == 15
        assert graph.depth == 4
        assert graph.width == 8
        assert graph.executable
        assert len(graph.sinks()) == 1

    def test_odd_leaf_counts_carry_over(self):
        graph = product_tree_graph([2, 3, 5])
        assert len(graph) == 2
        assert graph.depth == 2

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            product_tree_graph([7])
