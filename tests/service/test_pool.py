"""Tests for the sharded worker pool: routing, parity, spill, metrics.

Worker-crash handling has its own module (``test_pool_failures.py``);
these tests cover the healthy paths.  Pools here are deliberately small
(two workers) — correctness does not need cores, only the benchmark does.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.engine import Engine, EngineSpec
from repro.errors import ConfigurationError, OperandRangeError
from repro.service import (
    InlineExecutor,
    PoolConfig,
    PoolExecutor,
    Server,
    ServerConfig,
    shard_for,
)
from repro.workloads import product_tree_graph


def run(coroutine):
    return asyncio.run(coroutine)


MODULI = (997, 65521, (1 << 61) - 1, (1 << 127) - 1)


class TestShardRouting:
    def test_stable_and_in_range(self):
        for modulus in MODULI:
            home = shard_for(modulus, 4)
            assert 0 <= home < 4
            assert shard_for(modulus, 4) == home  # deterministic

    def test_single_worker_owns_everything(self):
        assert all(shard_for(modulus, 1) == 0 for modulus in MODULI)

    def test_different_worker_counts_cover_all_shards(self):
        # Many moduli must spread over the shard space (sanity, not
        # uniformity): 64 random primes into 4 shards hit every shard.
        rng = random.Random(7)
        homes = {
            shard_for(rng.randrange(3, 1 << 64) | 1, 4) for _ in range(64)
        }
        assert homes == {0, 1, 2, 3}


class TestPoolConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(start_method="nope")
        with pytest.raises(ConfigurationError):
            PoolConfig(spill_threshold=0)
        with pytest.raises(ConfigurationError):
            PoolConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            PoolConfig(monitor_interval_s=0)

    def test_pool_rejects_bad_workers_and_backends(self):
        with pytest.raises(ConfigurationError):
            PoolExecutor(workers=0)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            PoolExecutor(spec=EngineSpec(backend="not-a-backend"))


class TestPoolParity:
    def test_pairs_and_graphs_bit_identical_to_inline(self, rng):
        """The parity lock: same traffic, same products, both executors."""
        modulus = 65521
        pairs = [
            (rng.randrange(modulus), rng.randrange(modulus)) for _ in range(32)
        ]
        leaves = [rng.randrange(1, modulus) for _ in range(16)]
        graph = product_tree_graph(leaves)

        async def serve(workers):
            async with Server(
                backend="montgomery", modulus=modulus, workers=workers
            ) as server:
                batch = await server.multiply_batch(pairs)
                tree = await server.submit_graph(graph)
                return batch.values, tree.values

        inline_values = run(serve(None))
        pool_values = run(serve(2))
        assert inline_values == pool_values
        reference = 1
        for leaf in leaves:
            reference = reference * leaf % modulus
        assert pool_values[1] == (reference,)

    def test_pool_response_carries_shard(self):
        async def scenario():
            async with Server(
                backend="montgomery", modulus=997, workers=2
            ) as server:
                response = await server.multiply(3, 5)
                assert response.value == 15
                assert response.shard == server.executor.home_shard(997)
                inline = Server(backend="montgomery", modulus=997)
                async with inline:
                    assert (await inline.multiply(3, 5)).shard is None

        run(scenario())

    def test_admission_validation_still_rejects_bad_operands(self):
        async def scenario():
            async with Server(
                backend="montgomery", modulus=997, workers=2
            ) as server:
                with pytest.raises(OperandRangeError):
                    await server.multiply(1000, 5)

        run(scenario())


class TestPoolBehaviour:
    def test_moduli_route_to_their_home_shards(self):
        async def scenario():
            pool = PoolExecutor(
                spec=EngineSpec(backend="montgomery"), workers=2
            )
            async with Server(
                backend="montgomery", modulus=997, executor=pool
            ) as server:
                for modulus in MODULI:
                    response = await server.multiply(3, 5, modulus=modulus)
                    assert response.value == 15 % modulus
                    assert response.shard == pool.home_shard(modulus)
            await pool.close()
            rollup = pool.metrics.rollup()
            assert rollup["spilled_jobs"] == 0
            assert rollup["jobs"] == len(MODULI)

        run(scenario())

    def test_skewed_traffic_spills_to_least_loaded(self):
        """One hot modulus must not serialize on its home shard."""

        async def scenario():
            pool = PoolExecutor(
                spec=EngineSpec(backend="r4csa-lut"),
                workers=2,
                config=PoolConfig(spill_threshold=1),
            )
            modulus = (1 << 127) - 1
            config = ServerConfig(max_batch=8)
            async with Server(
                backend="r4csa-lut", modulus=modulus, config=config,
                executor=pool,
            ) as server:
                pairs = [(i + 2, i + 5) for i in range(8)]
                responses = await asyncio.gather(*(
                    server.multiply_batch(pairs) for _ in range(8)
                ))
                assert all(
                    response.values == tuple(a * b % modulus for a, b in pairs)
                    for response in responses
                )
                shards = {response.shard for response in responses}
            await pool.close()
            assert shards == {0, 1}, "skewed traffic stayed on one shard"
            assert pool.metrics.rollup()["spilled_jobs"] > 0

        run(scenario())

    def test_pool_backlog_counts_toward_admission(self):
        """Batches buffered in the pool still bound new admissions.

        Inline, execution blocks the dispatcher, so ``max_pending`` caps
        in-flight work by construction; with a pool the dispatcher hands
        batches off immediately, and unless the server counted the
        requests it is executing, a flood would buffer without bound in
        the worker queues.
        """

        async def scenario():
            from repro.errors import AdmissionError

            modulus = (1 << 127) - 1
            pairs = [(i + 2, i + 3) for i in range(200)]
            config = ServerConfig(
                max_batch=len(pairs), max_pending=4
            )
            async with Server(
                backend="r4csa-lut", modulus=modulus, config=config,
                workers=1,
            ) as server:
                tasks = [
                    asyncio.ensure_future(server.multiply_batch(pairs))
                    for _ in range(4)
                ]
                while server.executor.outstanding < 4:
                    await asyncio.sleep(0.002)
                assert server._pending == 0  # all handed to the pool...
                with pytest.raises(AdmissionError):  # ...and still counted
                    await server.multiply(3, 5)
                responses = await asyncio.gather(*tasks)
                expected = tuple(a * b % modulus for a, b in pairs)
                assert all(r.values == expected for r in responses)

        run(scenario())

    def test_cross_process_cache_stats_merge(self):
        async def scenario():
            async with Server(
                backend="montgomery", modulus=997, workers=2
            ) as server:
                for _ in range(4):
                    await server.multiply(3, 5)
                summary = server.metrics_summary()
            cache = summary["context_cache"]
            # One worker warmed the modulus once; later calls hit.
            assert cache["misses"] == 1
            assert cache["hits"] >= 1
            assert summary["engine_multiplications"] >= 4
            executor = summary["executor"]
            assert executor["kind"] == "pool"
            assert executor["workers"] == 2
            assert len(executor["per_shard"]) == 2
            assert executor["cache"]["misses"] == 1

        run(scenario())

    def test_pool_restart_after_stop(self):
        """A server-owned pool survives a stop/start cycle."""

        async def scenario():
            server = Server(backend="montgomery", modulus=997, workers=2)
            await server.start()
            first = await server.multiply(3, 5)
            await server.stop()
            await server.start()
            second = await server.multiply(3, 5)
            await server.stop()
            assert first.value == second.value == 15

        run(scenario())

    def test_inline_executor_describe_and_stats(self):
        engine = Engine(backend="montgomery", modulus=997)
        executor = InlineExecutor(engine)
        engine.multiply(3, 5)
        assert executor.describe()["kind"] == "inline"
        assert executor.engine_multiplications() == 1
        assert executor.cache_stats().misses == 1

    def test_executor_and_workers_are_mutually_exclusive(self):
        engine = Engine(backend="montgomery", modulus=997)
        with pytest.raises(ConfigurationError, match="not both"):
            Server(
                engine=engine,
                executor=InlineExecutor(engine),
                workers=2,
            )
