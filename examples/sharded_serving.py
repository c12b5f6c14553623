"""Sharded multi-process serving: shard routing and warm-cache hit rates.

The serving layer's executor seam in action (see the serving & sharding
how-to in ``docs/serving.md``):

1. a :class:`~repro.service.Server` with ``workers=2`` shards coalesced
   batches across two engine-owning OS processes;
2. traffic under three different moduli shows **stable hash routing** —
   each modulus has a home shard where its context (LUT tables,
   Montgomery constants) warms once and stays hot;
3. the per-shard metrics rollup shows the resulting **warm-cache hit
   rates**: one miss per (modulus, shard) that served it, hits for
   everything after.

The ``__main__`` guard matters: the pool's default start method is
``spawn``, which re-imports this file in each worker process.
"""

from __future__ import annotations

import asyncio

from repro.service import Client, Server, ServerConfig, shard_for

#: Three moduli so the router has something to route: the BN254 base
#: field prime and two Mersenne primes.
MODULI = {
    "bn254": 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47,
    "m127": (1 << 127) - 1,
    "m61": (1 << 61) - 1,
}
WORKERS = 2
ROUNDS = 6
PAIRS_PER_REQUEST = 8


async def main() -> None:
    config = ServerConfig(max_batch=64)
    async with Server(
        backend="montgomery", config=config, workers=WORKERS
    ) as server:
        print(f"pool of {WORKERS} workers; predicted home shards:")
        for name, modulus in MODULI.items():
            print(f"  {name:<6} -> shard {shard_for(modulus, WORKERS)}")

        client = Client(server, tenant="example")
        observed = {}
        for round_index in range(ROUNDS):
            for name, modulus in MODULI.items():
                pairs = [
                    ((round_index * 37 + i) % modulus, (i * 101 + 7) % modulus)
                    for i in range(PAIRS_PER_REQUEST)
                ]
                response = await client.multiply_batch(pairs, modulus=modulus)
                assert response.values == tuple(
                    a * b % modulus for a, b in pairs
                )
                observed.setdefault(name, set()).add(response.shard)

        print("\nobserved shards per modulus (affinity, spill on load):")
        for name, shards in observed.items():
            print(f"  {name:<6} served by shard(s) {sorted(shards)}")

        summary = server.metrics_summary()
        executor = summary["executor"]
        print(f"\nexecutor: {executor['kind']}, "
              f"{executor['jobs']} jobs, "
              f"{executor['spilled_jobs']} spilled, "
              f"{executor['worker_restarts']} restarts")
        for shard in executor["per_shard"]:
            cache = shard["cache"]
            lookups = cache["hits"] + cache["misses"]
            rate = cache["hits"] / lookups if lookups else 0.0
            print(f"  shard {shard['shard']}: {shard['jobs']} jobs, "
                  f"{shard['pairs']} pairs, cache {cache['hits']}/{lookups} "
                  f"hits (rate {rate:.2f})")
        merged = summary["context_cache"]
        print(f"merged context cache: {merged['hits']} hits / "
              f"{merged['misses']} misses "
              f"(hit rate {merged['hit_rate']:.2f})")
        print(f"throughput: {summary['requests_per_second']:.1f} req/s over "
              f"{summary['completed_requests']} requests")


if __name__ == "__main__":
    asyncio.run(main())
