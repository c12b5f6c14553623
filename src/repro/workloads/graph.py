"""The dependency-aware workload graph.

One :class:`WorkloadGraph` is one *request*: a DAG whose nodes are modular
multiplications and whose edges are data (or conservative control)
dependencies.  Nodes are appended in a valid topological order — every
dependency must name an already-added node — so the graph is acyclic by
construction and its insertion order doubles as the flat job order.

Two views matter to schedulers:

* :meth:`WorkloadGraph.topological_levels` groups nodes by longest-path
  depth — every node in a level is independent of every other, so a whole
  level can dispatch concurrently (the ready fronts the graph-aware chip
  scheduler and the serving layer batch on);
* :meth:`WorkloadGraph.linearized` chains the same nodes serially — the
  dependency structure a flat stream implies, used as the honest baseline
  when measuring what graph awareness buys.

Nodes may carry concrete operands (``a``/``b`` as integers or
:class:`Ref` erences to earlier products), in which case the graph is
*executable*: :func:`repro.workloads.execute.execute_graph` evaluates it
level-batched through the Engine and
:meth:`repro.modsram.chip.Chip.run_graph` on a multi-macro chip, with
bit-identical products either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

__all__ = ["Ref", "Operand", "MulNode", "WorkloadGraph"]


class Ref(NamedTuple):
    """A reference to the product of an earlier node in the same graph."""

    node: int


#: An operand of a multiplication node: a concrete value or a :class:`Ref`.
Operand = Union[int, Ref]


def _is_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer (``bool`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _invalid_field(
    position: int, node: Dict[str, object], field: str, expected: str
) -> ConfigurationError:
    return ConfigurationError(
        f"graph node {position} field {field!r} must be {expected}, "
        f"got {node.get(field)!r}"
    )


@dataclass(frozen=True)
class MulNode:
    """One modular multiplication of a workload graph.

    ``multiplicand`` is the LUT-reuse group: two nodes with equal keys can
    share a resident radix-4 LUT on the same macro.  ``deps`` are indices
    of earlier nodes that must finish before this one may start; operand
    :class:`Ref` s are folded into ``deps`` automatically by
    :meth:`WorkloadGraph.add`.
    """

    index: int
    multiplicand: str
    deps: Tuple[int, ...] = ()
    tag: str = ""
    #: Field/curve the multiplication lives in (``"bn254.base"``, ...).
    field_name: str = ""
    #: Scheduling priority; higher dispatches earlier among ready nodes.
    priority: int = 0
    a: Optional[Operand] = None
    b: Optional[Operand] = None

    @property
    def executable(self) -> bool:
        """Whether both operands are known (directly or by reference)."""
        return self.a is not None and self.b is not None


class WorkloadGraph:
    """A DAG of modular-multiplication nodes with LUT-reuse metadata."""

    def __init__(self, name: str = "workload") -> None:
        self.name = name
        self._nodes: List[MulNode] = []
        self._levels: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(
        self,
        multiplicand: str,
        deps: Iterable[int] = (),
        tag: str = "",
        field_name: str = "",
        priority: int = 0,
        a: Optional[Operand] = None,
        b: Optional[Operand] = None,
    ) -> int:
        """Append one node and return its index.

        Dependencies (explicit ``deps`` plus any operand :class:`Ref` s)
        must name already-added nodes, which keeps the graph acyclic by
        construction and makes insertion order a valid topological order.
        """
        index = len(self._nodes)
        merged = set(deps)
        for operand in (a, b):
            if isinstance(operand, Ref):
                merged.add(operand.node)
        for dep in merged:
            if not 0 <= dep < index:
                raise ConfigurationError(
                    f"node {index} of graph {self.name!r} depends on "
                    f"{dep}, which is not an earlier node"
                )
        self._nodes.append(
            MulNode(
                index=index,
                multiplicand=multiplicand,
                deps=tuple(sorted(merged)),
                tag=tag,
                field_name=field_name,
                priority=priority,
                a=a,
                b=b,
            )
        )
        self._levels = None
        return index

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> Tuple[MulNode, ...]:
        """Every node, in insertion (topological) order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def dependents(self) -> List[List[int]]:
        """For every node, the indices of the nodes that depend on it."""
        result: List[List[int]] = [[] for _ in self._nodes]
        for node in self._nodes:
            for dep in node.deps:
                result[dep].append(node.index)
        return result

    def sinks(self) -> List[int]:
        """Nodes nothing depends on (the request's results)."""
        depended_on = {dep for node in self._nodes for dep in node.deps}
        return [
            node.index for node in self._nodes if node.index not in depended_on
        ]

    def topological_levels(self) -> List[List[int]]:
        """Nodes grouped by longest-path depth, shallowest first.

        Level ``k`` holds every node whose longest dependency chain has
        ``k`` predecessors; all nodes within a level are mutually
        independent, so a level is exactly one concurrent dispatch front.
        """
        if self._levels is None:
            level_of: List[int] = [0] * len(self._nodes)
            levels: List[List[int]] = []
            for node in self._nodes:
                level = 0
                for dep in node.deps:
                    level = max(level, level_of[dep] + 1)
                level_of[node.index] = level
                while len(levels) <= level:
                    levels.append([])
                levels[level].append(node.index)
            self._levels = levels
        return [list(level) for level in self._levels]

    @property
    def depth(self) -> int:
        """Number of topological levels (the critical-path length in nodes)."""
        return len(self.topological_levels())

    @property
    def width(self) -> int:
        """Size of the largest level (peak available parallelism)."""
        levels = self.topological_levels()
        return max((len(level) for level in levels), default=0)

    @property
    def parallelism(self) -> float:
        """Average nodes per level — what an ideal chip could overlap."""
        depth = self.depth
        return len(self._nodes) / depth if depth else 0.0

    @property
    def executable(self) -> bool:
        """Whether every node carries operands (the graph can be evaluated)."""
        return bool(self._nodes) and all(
            node.executable for node in self._nodes
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def linearized(self) -> "WorkloadGraph":
        """The same nodes chained serially (node ``i`` depends on ``i-1``).

        A flat stream carries no dependency structure, so the only schedule
        that is *always* correct for it is fully sequential; this view
        makes that baseline explicit for benchmarks and parity tests.
        """
        chain = WorkloadGraph(name=f"{self.name}:linearized")
        for node in self._nodes:
            chain.add(
                multiplicand=node.multiplicand,
                deps=(node.index - 1,) if node.index else (),
                tag=node.tag,
                field_name=node.field_name,
                priority=node.priority,
                a=node.a,
                b=node.b,
            )
        return chain

    def as_dict(self) -> Dict[str, object]:
        """Structural summary for reports and ``--json`` payloads."""
        return {
            "name": self.name,
            "nodes": len(self._nodes),
            "edges": sum(len(node.deps) for node in self._nodes),
            "depth": self.depth,
            "width": self.width,
            "parallelism": self.parallelism,
            "executable": self.executable,
            "lut_groups": len({node.multiplicand for node in self._nodes}),
        }

    def to_payload(self) -> Dict[str, object]:
        """Full, JSON-safe serialization (the cluster wire format).

        Unlike :meth:`as_dict` (a structural *summary*), the payload
        carries every node — operands included, with :class:`Ref` s
        encoded as ``{"ref": index}`` — so :meth:`from_payload`
        reconstructs an arithmetically identical graph on another host.
        """
        def encode(operand: Optional[Operand]) -> object:
            if isinstance(operand, Ref):
                return {"ref": operand.node}
            return operand

        return {
            "name": self.name,
            "nodes": [
                {
                    "multiplicand": node.multiplicand,
                    "deps": list(node.deps),
                    "tag": node.tag,
                    "field_name": node.field_name,
                    "priority": node.priority,
                    "a": encode(node.a),
                    "b": encode(node.b),
                }
                for node in self._nodes
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "WorkloadGraph":
        """Rebuild a graph from :meth:`to_payload` output.

        Round-trips exactly: node order, dependencies, operands and
        LUT-reuse metadata all survive, so a graph executed on a remote
        cluster node yields bit-identical products to local execution.
        The payload is client input, so nothing is coerced: a malformed
        node raises :class:`ConfigurationError` naming its index and field.
        """
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            raise ConfigurationError(
                f"graph payload needs a list of nodes, got {nodes!r}"
            )
        graph = cls(name=str(payload.get("name", "workload")))
        for position, node in enumerate(nodes):
            if not isinstance(node, dict):
                raise ConfigurationError(
                    f"graph node {position} must be an object, got {node!r}"
                )
            multiplicand = node.get("multiplicand")
            if not isinstance(multiplicand, str):
                raise _invalid_field(position, node, "multiplicand", "a string")
            deps = node.get("deps", ())
            if not isinstance(deps, (list, tuple)) or not all(map(_is_int, deps)):
                raise _invalid_field(position, node, "deps", "a list of integers")
            priority = node.get("priority", 0)
            if not _is_int(priority):
                raise _invalid_field(position, node, "priority", "an integer")
            operands: List[Optional[Operand]] = []
            for field in ("a", "b"):
                value = node.get(field)
                if isinstance(value, dict) and _is_int(value.get("ref")):
                    operands.append(Ref(value["ref"]))
                elif value is None or _is_int(value):
                    operands.append(value)
                else:
                    raise _invalid_field(
                        position, node, field, 'null, an integer or {"ref": <int>}'
                    )
            graph.add(
                multiplicand=multiplicand,
                deps=deps,
                tag=str(node.get("tag", "")),
                field_name=str(node.get("field_name", "")),
                priority=priority,
                a=operands[0],
                b=operands[1],
            )
        return graph

    def __repr__(self) -> str:
        return (
            f"WorkloadGraph(name={self.name!r}, nodes={len(self._nodes)}, "
            f"depth={self.depth}, width={self.width})"
        )
