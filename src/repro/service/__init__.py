"""Async serving layer over the Workload Graph API and the Engine.

The production-shaped path the roadmap asks for: many concurrent tenants
submit work (single multiplications, operand batches, operand-carrying
workload graphs) to one :class:`Server`, which admits, queues, coalesces
and dispatches it through a shared context-cached
:class:`~repro.engine.Engine`::

    import asyncio
    from repro.service import Client, Server
    from repro.workloads import product_tree_graph

    async def main():
        async with Server(backend="r4csa-lut", curve="bn254") as server:
            client = Client(server, tenant="alice")
            print(int((await client.multiply(3, 5)).value))
            tree = product_tree_graph(range(2, 18))
            print((await client.submit_graph(tree)).values)

    asyncio.run(main())

Execution is pluggable (the :class:`Executor` seam): batches run inline
on the event loop by default, or — ``Server(..., workers=N)`` /
:class:`PoolExecutor` — sharded across N engine-owning OS processes with
stable modulus→shard hashing, escaping the GIL (see
:mod:`repro.service.pool` and the serving/sharding how-to in ``docs/``).

The ``serving-throughput`` experiment (``repro serve [--workers N]``)
drives the built-in multi-tenant traffic mix
(:mod:`repro.service.selftest`), ``repro submit`` sends one request from
the shell, and the experiment plus ``benchmarks/bench_serve.py`` measure
the layer end to end.
"""

from repro.errors import (
    AdmissionError,
    DeadlineError,
    ServiceError,
    WorkerCrashError,
)
from repro.service.client import Client
from repro.service.executor import Executor, InlineExecutor
from repro.service.metrics import (
    LatencyStats,
    PoolMetrics,
    ServiceMetrics,
    ShardMetrics,
)
from repro.service.pool import PoolConfig, PoolExecutor, shard_for
from repro.service.selftest import run_self_test, self_test
from repro.service.server import Response, Server, ServerConfig

__all__ = [
    "AdmissionError",
    "Client",
    "DeadlineError",
    "Executor",
    "InlineExecutor",
    "LatencyStats",
    "PoolConfig",
    "PoolExecutor",
    "PoolMetrics",
    "Response",
    "Server",
    "ServerConfig",
    "ServiceError",
    "ServiceMetrics",
    "ShardMetrics",
    "WorkerCrashError",
    "run_self_test",
    "self_test",
    "shard_for",
]
