"""Pinned digests of the workload graphs and their level-batched execution.

The values were recorded while ``MulNode`` was a frozen dataclass and
``WorkloadGraph`` recomputed its levels in a second pass over every node.
However the graph is built, stored or executed, none of them may move:

* a product tree over seeded leaves, at sizes that exercise the odd-leaf
  carry (2, 3, 5, 96, 4096): its full payload, levels, sinks, dependents,
  structural summary and ``repr``;
* a 64-point NTT and a two-signature 16-bit ECDSA graph, their
  ``linearized()`` chains, and a ``from_payload(to_payload())`` round trip;
* ``execute_graph`` of a 4096-leaf tree on three word-level backends and a
  96-leaf tree on the bit-serial ``r4csa-lut``: every product, the sinks,
  the batch counts, the modeled cycles, the backend and the engine's
  ``stats()`` counters (operation and context-cache counts).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import Engine
from repro.workloads import (
    WorkloadGraph,
    ecdsa_sign_graph,
    execute_graph,
    ntt_graph,
    product_tree_graph,
)

MODULUS = CURVE_SPECS["bn254"].field_modulus


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:16]


def leaves(count: int):
    """``count`` seeded leaves, some of them at or above the modulus."""
    rng = random.Random(f"product-tree/{count}")
    return [rng.randrange(2 * MODULUS) for _ in range(count)]


def graph_digest(graph: WorkloadGraph) -> str:
    return _digest([
        json.dumps(graph.to_payload(), sort_keys=True),
        graph.topological_levels(),
        graph.sinks(),
        graph.dependents(),
        json.dumps(graph.as_dict(), sort_keys=True),
        repr(graph),
    ])


GRAPHS = {
    "ntt": lambda: ntt_graph(64, field_name="bn254.scalar"),
    "ecdsa-sign": lambda: ecdsa_sign_graph(16, signatures=2),
}

PINS_TREE = {
    2: "871947ba6c17b2d0",
    3: "caafb98783f3bf4f",
    5: "19d16f48ed212c30",
    96: "c20b66cd82750aa4",
    4096: "a739676dd6aa6a27",
}

PINS_GRAPH = {
    "ntt": "8a824798bb9514c5",
    "ntt-chain": "0a9d63ab29450bb8",
    "ecdsa-sign": "62dc36bf661168f5",
    "ecdsa-sign-chain": "9d5dda1c0f2de3f5",
}

#: The leaves of each pinned execution, by backend.
EXECUTIONS = {
    "schoolbook": 4096,
    "montgomery": 4096,
    "barrett": 4096,
    "r4csa-lut": 96,
}

PINS_EXECUTE = {
    "schoolbook": "fa3c5cfb82bc8935",
    "montgomery": "e6bbd6d5129207dd",
    "barrett": "21031a48b3ebf392",
    "r4csa-lut": "38dad69a6e6e3a64",
}


@pytest.mark.parametrize("count", sorted(PINS_TREE))
def test_product_tree_is_pinned(count):
    graph = product_tree_graph(leaves(count), field_name="bn254.base")
    assert graph_digest(graph) == PINS_TREE[count]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_and_its_chain_are_pinned(name):
    graph = GRAPHS[name]()
    assert graph_digest(graph) == PINS_GRAPH[name]
    assert graph_digest(graph.linearized()) == PINS_GRAPH[f"{name}-chain"]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_payload_round_trip_is_pinned(name):
    graph = GRAPHS[name]()
    rebuilt = WorkloadGraph.from_payload(graph.to_payload())
    assert rebuilt.nodes == graph.nodes
    assert graph_digest(rebuilt) == PINS_GRAPH[name]


@pytest.mark.parametrize("backend", sorted(EXECUTIONS))
def test_execution_is_pinned(backend):
    engine = Engine(backend=backend, modulus=MODULUS)
    graph = product_tree_graph(leaves(EXECUTIONS[backend]))
    execution = execute_graph(engine, graph, MODULUS)
    lines = [
        execution.values,
        execution.sinks,
        execution.batches,
        execution.max_batch,
        execution.modeled_cycles,
        execution.backend,
        execution.modulus,
        json.dumps(engine.stats().as_dict(), sort_keys=True),
    ]
    assert _digest(lines) == PINS_EXECUTE[backend]
