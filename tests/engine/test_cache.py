"""Tests for the LRU context cache."""

from __future__ import annotations

import threading

import pytest

from repro.engine import ContextCache, get_backend
from repro.errors import ConfigurationError


@pytest.fixture()
def backend():
    return get_backend("barrett")


class TestContextCache:
    def test_miss_then_hit(self, backend):
        cache = ContextCache(max_entries=4)
        first, hit_first = cache.get_or_create(backend, 97)
        second, hit_second = cache.get_or_create(backend, 97)
        assert not hit_first and hit_second
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_moduli_are_distinct_entries(self, backend):
        cache = ContextCache(max_entries=4)
        first, _ = cache.get_or_create(backend, 97)
        second, _ = cache.get_or_create(backend, 101)
        assert first is not second
        assert cache.contexts() == (first, second)

    def test_lru_eviction_order(self, backend):
        cache = ContextCache(max_entries=2)
        cache.get_or_create(backend, 97)
        cache.get_or_create(backend, 101)
        cache.get_or_create(backend, 97)     # refresh 97: 101 is now LRU
        cache.get_or_create(backend, 251)    # evicts 101
        assert [context.modulus for context in cache.contexts()] == [97, 251]
        assert cache.stats.evictions == 1

    def test_on_evict_callback_receives_context(self, backend):
        evicted = []
        cache = ContextCache(max_entries=1, on_evict=evicted.append)
        cache.get_or_create(backend, 97)
        cache.get_or_create(backend, 101)
        assert [context.modulus for context in evicted] == [97]

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ContextCache(max_entries=0)

    def test_empty_cache_hit_rate_is_zero(self):
        assert ContextCache().stats.hit_rate == 0.0


class TestThreadSafety:
    """Concurrent runners share one cache (prerequisite for parallel sweeps)."""

    THREADS = 8
    LOOKUPS_PER_THREAD = 50
    MODULI = (97, 101, 251, 257)

    def test_concurrent_lookups_keep_stats_consistent(self, backend):
        cache = ContextCache(max_entries=2)
        errors = []

        def worker(thread_index: int) -> None:
            try:
                for step in range(self.LOOKUPS_PER_THREAD):
                    modulus = self.MODULI[(thread_index + step) % len(self.MODULI)]
                    context, _ = cache.get_or_create(backend, modulus)
                    assert context.modulus == modulus
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        total = self.THREADS * self.LOOKUPS_PER_THREAD
        # Every lookup is accounted exactly once, and the books balance:
        # entries still resident = misses that were never evicted.
        assert cache.stats.lookups == total
        assert cache.stats.hits + cache.stats.misses == total
        resident = len(cache.contexts())
        assert cache.stats.misses - cache.stats.evictions == resident
        assert resident <= 2

    def test_concurrent_same_modulus_builds_one_context(self, backend):
        cache = ContextCache(max_entries=4)
        contexts = []
        barrier = threading.Barrier(self.THREADS)

        def worker() -> None:
            barrier.wait()
            context, _ = cache.get_or_create(backend, 97)
            contexts.append(context)

        threads = [
            threading.Thread(target=worker) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(contexts) == self.THREADS
        assert all(context is contexts[0] for context in contexts)
        assert cache.stats.misses == 1
        assert cache.stats.hits == self.THREADS - 1
