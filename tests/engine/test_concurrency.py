"""Concurrent multiply_batch: ContextCache thread-safety under serving load."""

from __future__ import annotations

import asyncio
import random
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine import Engine

MODULI = (997, 65521, (1 << 61) - 1, 101)


def batch_for(modulus: int, seed: int, count: int = 32):
    rng = random.Random(seed)
    return [
        (rng.randrange(modulus), rng.randrange(modulus)) for _ in range(count)
    ]


class TestThreadedBatches:
    def test_disjoint_moduli_from_many_threads(self):
        """Each thread hits its own context; totals must be exact."""
        engine = Engine(backend="barrett", cache_size=64)
        moduli = [997 + 2 * index for index in range(32)]  # 32 odd moduli

        def work(index: int) -> int:
            modulus = moduli[index]
            pairs = batch_for(modulus, seed=index)
            result = engine.multiply_batch(pairs, modulus)
            assert list(result.values) == [a * b % modulus for a, b in pairs]
            return result.count

        with ThreadPoolExecutor(max_workers=8) as pool:
            counts = list(pool.map(work, range(32)))

        assert sum(counts) == 32 * 32
        # Disjoint contexts: no shared counters, so totals are exact.
        assert engine.stats().multiplications == 32 * 32
        stats = engine.cache_stats
        assert stats.misses == 32
        assert stats.hits == 0
        assert stats.lookups == 32

    def test_same_modulus_races_build_one_context(self):
        """Many threads on one modulus: a single warmed context, right values."""
        engine = Engine(backend="montgomery", modulus=65521)
        barrier = threading.Barrier(8)
        failures = []

        def work(index: int) -> None:
            barrier.wait()  # maximise get_or_create contention
            pairs = batch_for(65521, seed=1000 + index, count=16)
            result = engine.multiply_batch(pairs)
            expected = [a * b % 65521 for a, b in pairs]
            if list(result.values) != expected:
                failures.append(index)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert engine.cache_stats.misses == 1
        assert len(engine._cache.contexts()) == 1
        # Precomputation ran exactly once despite the race.
        assert engine.stats().precomputations == 1

    def test_eviction_under_concurrency_keeps_accounting_consistent(self):
        """A tiny cache thrashing across threads never loses statistics."""
        engine = Engine(backend="montgomery", cache_size=2)

        def work(index: int) -> None:
            modulus = MODULI[index % len(MODULI)]
            engine.multiply_batch(batch_for(modulus, seed=index, count=4), modulus)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(work, range(24)))

        stats = engine.cache_stats
        # Lookup accounting runs under the cache lock: exact despite races.
        assert stats.lookups == 24
        assert stats.hits + stats.misses == 24
        assert stats.evictions >= len(MODULI) - 2
        # Retired contexts keep contributing to the aggregate counters.
        assert engine.stats().multiplications > 0


class TestAsyncioBatches:
    def test_tasks_share_an_engine_via_to_thread(self):
        """Asyncio serving-style fan-out over one engine stays correct."""
        engine = Engine(backend="barrett")

        async def scenario():
            async def one(index: int):
                modulus = MODULI[index % len(MODULI)]
                pairs = batch_for(modulus, seed=index, count=8)
                result = await asyncio.to_thread(
                    engine.multiply_batch, pairs, modulus
                )
                assert list(result.values) == [a * b % modulus for a, b in pairs]
                return result.count

            counts = await asyncio.gather(*(one(index) for index in range(16)))
            return counts

        counts = asyncio.run(scenario())
        assert sum(counts) == 16 * 8
        assert engine.cache_stats.misses == len(MODULI)
        # The cache counters ride along in EngineStats for observability.
        assert engine.stats().cache.misses == len(MODULI)
