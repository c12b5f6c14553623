"""The execution seam of the serving layer: where coalesced batches run.

The :class:`~repro.service.server.Server` owns admission, batching and
fairness; *where* a formed batch executes is an :class:`Executor`:

* :class:`InlineExecutor` — today's behaviour: the batch runs
  synchronously on the event loop against the server's own engine.  Zero
  overhead, but the GIL caps throughput at one core.
* :class:`~repro.service.pool.PoolExecutor` — the batch is shipped to one
  of N worker processes, each owning a pinned engine with its own warm
  context cache, selected by stable modulus hashing (with spill to the
  least-loaded shard on skew).

Both executors are arithmetically interchangeable: the pool workers build
their engines from the same :class:`~repro.engine.EngineSpec`, so products
are bit-identical across executors (parity-locked by the test suite and
``benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.engine import CacheStats, Engine
from repro.errors import ServiceError
from repro.workloads.execute import GraphExecution, execute_graph

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.engine import BatchResult
    from repro.workloads.graph import WorkloadGraph

__all__ = ["Executor", "InlineExecutor"]


class Executor(abc.ABC):
    """Where the server's coalesced batches execute.

    The server calls :meth:`execute_pairs` / :meth:`execute_graph` with
    already-validated work (operands range-checked, modulus resolved at
    admission).  Both return the engine-layer result object plus the shard
    index that ran it (``None`` for inline execution).  Executors whose
    :attr:`inline` flag is true are additionally called through the
    synchronous fast path, preserving the single-process server's exact
    dispatch timing.
    """

    #: True when execution happens synchronously on the event loop; the
    #: server then skips task creation and runs the batch in the
    #: dispatcher, exactly like the pre-pool server did.
    inline: ClassVar[bool] = False

    async def start(self) -> None:
        """Bring up execution resources (idempotent)."""

    async def close(self) -> None:
        """Tear down execution resources (idempotent)."""

    def execute_pairs_sync(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> "BatchResult":
        """Synchronous fast path; required when :attr:`inline` is true."""
        raise ServiceError(
            f"{type(self).__name__} sets inline=True but does not "
            "implement execute_pairs_sync"
        )

    def execute_graph_sync(
        self, graph: "WorkloadGraph", modulus: int
    ) -> GraphExecution:
        """Synchronous fast path; required when :attr:`inline` is true."""
        raise ServiceError(
            f"{type(self).__name__} sets inline=True but does not "
            "implement execute_graph_sync"
        )

    @abc.abstractmethod
    async def execute_pairs(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> Tuple["BatchResult", Optional[int]]:
        """Run one flattened operand batch; returns ``(result, shard)``."""

    @abc.abstractmethod
    async def execute_graph(
        self, graph: "WorkloadGraph", modulus: int
    ) -> Tuple[GraphExecution, Optional[int]]:
        """Run one operand-carrying graph; returns ``(execution, shard)``."""

    @abc.abstractmethod
    def cache_stats(self) -> CacheStats:
        """Context-cache counters across every engine this executor drives."""

    @abc.abstractmethod
    def engine_multiplications(self) -> int:
        """Total engine multiplications across every engine it drives."""

    @abc.abstractmethod
    def describe(self) -> Dict[str, object]:
        """JSON-friendly description (kind, workers, per-shard rollups)."""


class InlineExecutor(Executor):
    """Execute batches synchronously on the event loop (the classic path).

    Wraps the server's own engine; the async methods exist for interface
    uniformity but the server uses the ``*_sync`` fast path so dispatch
    behaviour is identical to the pre-executor server.
    """

    inline: ClassVar[bool] = True

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    # -- synchronous fast path (what the server actually calls) -------- #
    def execute_pairs_sync(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> "BatchResult":
        return self.engine.multiply_batch(pairs, modulus)

    def execute_graph_sync(
        self, graph: "WorkloadGraph", modulus: int
    ) -> GraphExecution:
        return execute_graph(self.engine, graph, modulus)

    # -- Executor interface -------------------------------------------- #
    async def execute_pairs(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> Tuple["BatchResult", Optional[int]]:
        return self.execute_pairs_sync(pairs, modulus), None

    async def execute_graph(
        self, graph: "WorkloadGraph", modulus: int
    ) -> Tuple[GraphExecution, Optional[int]]:
        return self.execute_graph_sync(graph, modulus), None

    def cache_stats(self) -> CacheStats:
        return self.engine.stats().cache

    def engine_multiplications(self) -> int:
        return self.engine.stats().multiplications

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "inline",
            "workers": 1,
            "backend": self.engine.info.name,
        }

    def __repr__(self) -> str:
        return f"InlineExecutor(engine={self.engine!r})"
