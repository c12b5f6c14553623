"""LRU cache of per-modulus backend contexts.

The paper's data-reuse argument — LUT word lines stay resident in the array
while the modulus is unchanged — generalises to every backend: Montgomery
and Barrett constants, R4CSA-LUT overflow tables and ModSRAM macro sizing
all depend only on ``(backend, modulus)``.  The :class:`ContextCache` keeps
one warmed :class:`~repro.engine.backend.EngineContext` per such pair so the
ECC, ZKP and analysis layers share precomputation instead of re-deriving it
per call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.backend import EngineContext, MultiplierBackend

__all__ = [
    "CacheStats",
    "ContextCache",
]


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ContextCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """Stats as a plain dictionary (for reports and ``--json`` output)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """A new stats object with both operands' counters summed.

        The serving pool uses this to roll the per-worker context-cache
        counters (each worker process owns a private cache) into one
        cross-process view.
        """
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "CacheStats":
        """Rebuild counters from :meth:`as_dict` output (wire format)."""
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            evictions=int(data.get("evictions", 0)),
        )

    def snapshot(self) -> "CacheStats":
        """An independent copy (mutating it never touches the original)."""
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )


class ContextCache:
    """Least-recently-used cache keyed by ``(backend name, modulus)``.

    ``on_evict`` (if given) is called with every evicted context, letting the
    owning :class:`~repro.engine.engine.Engine` fold the evicted context's
    operation statistics into its retired totals.

    Every operation (lookup, eviction, stats accounting) runs under one
    re-entrant lock, so concurrent runner threads can share a cache without
    corrupting the LRU order or double-building a context for the same
    modulus.
    """

    def __init__(
        self,
        max_entries: int = 32,
        on_evict: Optional[Callable[["EngineContext"], None]] = None,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"context cache needs at least one entry, got {max_entries}"
            )
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._on_evict = on_evict
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple[str, int], EngineContext]" = OrderedDict()

    def get_or_create(
        self, backend: "MultiplierBackend", modulus: int
    ) -> Tuple["EngineContext", bool]:
        """Return ``(context, cache_hit)`` for ``(backend, modulus)``.

        On a miss the backend builds (and warms) a fresh context; the least
        recently used entry is evicted once the cache is full.  Context
        creation happens under the lock, so two threads racing on the same
        modulus warm it exactly once.
        """
        key = (backend.info.name, modulus)
        with self._lock:
            context = self._entries.get(key)
            if context is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return context, True

            self.stats.misses += 1
            context = backend.create_context(modulus)
            self._entries[key] = context
            if len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self._on_evict is not None:
                    self._on_evict(evicted)
            return context, False

    def contexts(self) -> Tuple["EngineContext", ...]:
        """Every resident context, least recently used first."""
        with self._lock:
            return tuple(self._entries.values())

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ContextCache(entries={len(self._entries)}/{self.max_entries}, "
                f"hits={self.stats.hits}, misses={self.stats.misses})"
            )
