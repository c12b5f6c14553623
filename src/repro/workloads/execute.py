"""Level-batched execution of operand-carrying workload graphs.

:func:`execute_graph` evaluates an *executable* :class:`WorkloadGraph`
through the unified :class:`~repro.engine.Engine`: every topological level
is one :meth:`~repro.engine.Engine.multiply_batch` call (independent nodes
share a single validated, context-cached batch), and operand
:class:`~repro.workloads.graph.Ref` s resolve against the products of
earlier levels.  Products are bit-identical to evaluating the nodes one by
one in insertion order — the batching changes the dispatch, never the
arithmetic — which is what lets the serving layer and the chip-level graph
scheduler share this path as their functional oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.workloads.graph import Ref, WorkloadGraph

__all__ = ["GraphExecution", "execute_graph"]


@dataclass(frozen=True)
class GraphExecution:
    """Products and dispatch statistics of one graph evaluation."""

    graph_name: str
    #: Product of every node, indexed like the graph's nodes.
    values: Tuple[int, ...]
    #: Node indices nothing depends on (the request's results).
    sinks: Tuple[int, ...]
    backend: str
    modulus: int
    #: One batch per topological level.
    batches: int
    #: Nodes in the largest single batch.
    max_batch: int
    #: Analytic hardware cycles summed over every batch (``None`` without
    #: a cycle model).
    modeled_cycles: Optional[int]

    @property
    def results(self) -> Tuple[int, ...]:
        """The sink products, in node order."""
        return tuple(self.values[index] for index in self.sinks)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (products elided to the sinks)."""
        return {
            "graph": self.graph_name,
            "nodes": len(self.values),
            "sinks": list(self.sinks),
            "results": [self.values[index] for index in self.sinks],
            "backend": self.backend,
            "modulus": self.modulus,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "modeled_cycles": self.modeled_cycles,
        }


def execute_graph(
    engine,
    graph: WorkloadGraph,
    modulus: Optional[int] = None,
) -> GraphExecution:
    """Evaluate an executable graph level-batched through an Engine.

    Each topological level's operand pairs go through one
    ``engine.multiply_batch`` call; constants are reduced modulo ``p`` on
    entry (graph builders accept raw values), references resolve to the
    referenced node's product.
    """
    if not graph.executable:
        raise ConfigurationError(
            f"graph {graph.name!r} is structural (nodes without operands); "
            "only operand-carrying graphs can be executed"
        )
    nodes = graph.nodes
    values: List[Optional[int]] = [None] * len(nodes)

    first_batch = None
    batches = 0
    max_batch = 0
    modeled: Optional[int] = 0
    backend = ""
    resolved_modulus = 0
    for level in graph.topological_levels():
        pairs = []
        for index in level:
            node = nodes[index]
            pairs.append(
                (_resolve(node.a, values, resolved_modulus or None),
                 _resolve(node.b, values, resolved_modulus or None))
            )
        if first_batch is None:
            # Resolve the context once so constants of later levels can be
            # range-reduced against the actual modulus.
            context = engine.context(modulus)
            resolved_modulus = context.modulus
            backend = context.info.name
            pairs = [(a % resolved_modulus, b % resolved_modulus) for a, b in pairs]
            first_batch = True
        batch = engine.multiply_batch(pairs, resolved_modulus)
        for index, value in zip(level, batch.values):
            values[index] = value
        batches += 1
        max_batch = max(max_batch, len(pairs))
        if modeled is not None:
            modeled = (
                None
                if batch.modeled_cycles is None
                else modeled + batch.modeled_cycles
            )
    return GraphExecution(
        graph_name=graph.name,
        values=tuple(value for value in values),  # type: ignore[arg-type]
        sinks=tuple(graph.sinks()),
        backend=backend,
        modulus=resolved_modulus,
        batches=batches,
        max_batch=max_batch,
        modeled_cycles=modeled,
    )


def _resolve(operand, values: List[Optional[int]], modulus: Optional[int]) -> int:
    if isinstance(operand, Ref):
        value = values[operand.node]
        if value is None:  # pragma: no cover - levels guarantee ordering
            raise ConfigurationError(
                f"operand references node {operand.node} before it executed"
            )
        return value
    value = int(operand)
    return value % modulus if modulus else value
