"""Synthetic multi-tenant traffic against an in-process server.

The ``serving-throughput`` experiment (and its ``repro serve`` shortcut)
drives this: ``tenants`` concurrent clients each fire ``requests`` requests
(operand batches, with every ``graph_every``-th request an executable
product-tree graph), every product is verified against the big-int
reference, and the server's metrics summary comes back as the payload.
Operands are seeded per tenant, so the *work* is reproducible even though
the wall-clock figures are not.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict

from repro.engine import EngineSpec
from repro.errors import ServiceError
from repro.service.client import Client
from repro.service.server import Server, ServerConfig
from repro.workloads.builders import product_tree_graph

__all__ = ["run_self_test", "self_test"]


async def self_test(
    backend: str = EngineSpec.backend,
    curve: str = "bn254",
    tenants: int = 4,
    requests: int = 32,
    pairs_per_request: int = 8,
    graph_every: int = 8,
    graph_leaves: int = 16,
    max_batch: int = 64,
    seed: int = 2024,
    workers: int = 0,
) -> Dict[str, object]:
    """Run the traffic mix and return the metrics payload (async form).

    ``workers=0`` (the default) serves inline on the event loop;
    ``workers=N`` shards batch execution across N worker processes
    (:class:`~repro.service.pool.PoolExecutor`) — same products, verified
    the same way, with the pool's per-shard rollup in the summary.
    """
    config = ServerConfig(max_batch=max_batch)
    async with Server(
        backend=backend, curve=curve, config=config, workers=workers or None
    ) as server:
        modulus = server.engine.default_modulus
        assert modulus is not None
        verified = 0
        failures = 0

        async def tenant_traffic(tenant_index: int) -> None:
            nonlocal verified, failures
            client = Client(server, tenant=f"tenant-{tenant_index}")
            rng = random.Random(seed + tenant_index)
            for request in range(requests):
                if graph_every and request % graph_every == graph_every - 1:
                    leaves = [
                        rng.randrange(1, modulus) for _ in range(graph_leaves)
                    ]
                    response = await client.submit_graph(
                        product_tree_graph(leaves)
                    )
                    reference = 1
                    for leaf in leaves:
                        reference = reference * leaf % modulus
                    expected = (reference,)
                else:
                    batch = [
                        (rng.randrange(modulus), rng.randrange(modulus))
                        for _ in range(pairs_per_request)
                    ]
                    response = await client.multiply_batch(batch)
                    expected = tuple(a * b % modulus for a, b in batch)
                if response.values == expected:
                    verified += 1
                else:  # pragma: no cover - would be an arithmetic bug
                    failures += 1
                # Yield so tenants interleave and the batcher sees mixed
                # traffic rather than one tenant's burst at a time.
                await asyncio.sleep(0)

        await asyncio.gather(
            *(tenant_traffic(index) for index in range(tenants))
        )
        summary = server.metrics_summary()
    summary["verified_requests"] = verified
    summary["failed_requests"] = failures
    summary["tenants"] = tenants
    summary["requests_per_tenant"] = requests
    summary["pairs_per_request"] = pairs_per_request
    summary["workers"] = workers
    if failures:
        raise ServiceError(
            f"self-test verified {verified} requests but {failures} "
            "returned wrong products"
        )
    return summary


def run_self_test(**kwargs) -> Dict[str, object]:
    """Synchronous wrapper of :func:`self_test`."""
    return asyncio.run(self_test(**kwargs))
