#!/usr/bin/env python3
"""Serving quickstart: build a workload graph, submit it, await the result.

Demonstrates the Workload Graph API and the async serving layer:

1. a dependency-aware workload graph (batch-inversion product tree) and
   what its structure buys on a multi-macro chip,
2. an async server with per-tenant clients, self-clocked batching and
   admission control,
3. graph submission end to end — build graph, submit, await the product,
4. the server's metrics: throughput, latency percentiles, batching and
   context-cache behaviour.

Run with ``python examples/serving_quickstart.py``.
"""

from __future__ import annotations

import asyncio
import random

from repro.modsram import ChipScheduler
from repro.service import Client, Server, ServerConfig
from repro.workloads import ecdsa_sign_graph, product_tree_graph


def graph_structure() -> None:
    # ------------------------------------------------------------------ #
    # 1. Dependency structure is schedulable parallelism.
    # ------------------------------------------------------------------ #
    graph = ecdsa_sign_graph(scalar_bits=64, signatures=2)
    print("ecdsa_sign_graph(64, signatures=2)")
    print(f"  nodes={len(graph)}, depth={graph.depth}, width={graph.width}, "
          f"avg parallelism={graph.parallelism:.1f}")

    scheduler = ChipScheduler(macros=4)
    aware = scheduler.schedule_graph(graph)
    flat = scheduler.schedule_graph(graph.linearized())
    print(f"  4-macro chip: graph-aware makespan {aware.makespan_cycles} cyc "
          f"(utilization {aware.utilization:.2f})")
    print(f"  flat-stream  makespan {flat.makespan_cycles} cyc "
          f"(utilization {flat.utilization:.2f}) -> "
          f"{flat.makespan_cycles / aware.makespan_cycles:.1f}x win")
    print()


async def serve() -> None:
    # ------------------------------------------------------------------ #
    # 2. An async server; clients are tenant-scoped handles.
    # ------------------------------------------------------------------ #
    config = ServerConfig(max_batch=32)
    async with Server(backend="r4csa-lut", curve="bn254", config=config) as server:
        modulus = server.engine.default_modulus
        assert modulus is not None
        alice = Client(server, tenant="alice")
        bob = Client(server, tenant="bob", deadline_ms=250.0)
        rng = random.Random(7)

        # 3a. Single multiplications from two tenants coalesce into one
        #     engine batch behind the scenes.
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        alice_response, bob_response = await asyncio.gather(
            alice.multiply(a, b),
            bob.multiply(b, a),
        )
        print("concurrent multiplies")
        print(f"  alice: {alice_response.value % 1000}... "
              f"(rode a batch of {alice_response.batched_pairs} pairs)")
        print(f"  bob  : latency {bob_response.latency_ms:.2f} ms "
              f"(queued {bob_response.queue_ms:.2f} ms)")
        print()

        # 3b. Build graph -> submit -> await result.
        leaves = [rng.randrange(1, modulus) for _ in range(16)]
        tree = product_tree_graph(leaves)
        response = await alice.submit_graph(tree)
        reference = 1
        for leaf in leaves:
            reference = reference * leaf % modulus
        print("product-tree graph (batch-inversion kernel)")
        print(f"  {tree!r}")
        print(f"  served product == big-int reference: "
              f"{response.values == (reference,)}")
        print(f"  level-batched into {response.batched_pairs} node products")
        print()

        # ------------------------------------------------------------------ #
        # 4. Metrics: what the serving layer measured.
        # ------------------------------------------------------------------ #
        summary = server.metrics_summary()
        print("server metrics")
        print(f"  completed     : {summary['completed_requests']} requests, "
              f"{summary['completed_multiplications']} multiplications")
        print(f"  batching      : {summary['batches']} engine batches, "
              f"mean {summary['mean_batch_size']:.1f} pairs")
        latency = summary["latency"]
        print(f"  latency       : p50 {latency['p50_ms']:.2f} ms, "
              f"p95 {latency['p95_ms']:.2f} ms")
        cache = summary["context_cache"]
        print(f"  context cache : {cache['hits']} hits, "
              f"{cache['misses']} misses "
              f"(hit rate {cache['hit_rate']:.2f})")


def main() -> None:
    graph_structure()
    asyncio.run(serve())


if __name__ == "__main__":
    main()
