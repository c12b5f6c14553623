"""Unified Engine API: one batched, context-cached entry point.

The engine layer unifies every registered
:class:`~repro.core.ModularMultiplier` — the software family and the
ModSRAM tier adapters — behind a single facade with per-modulus context
caching and batch execution::

    from repro.engine import Engine

    engine = Engine(backend="r4csa-lut", curve="bn254")
    result = engine.multiply(12345, 67890)          # MultiplyResult
    batch = engine.multiply_batch([(1, 2), (3, 4)]) # BatchResult
    field = engine.field()                           # engine-backed GF(p)
    ntt = engine.ntt(1024)                           # engine-backed NTT

See :mod:`repro.engine.engine` for the facade, :mod:`repro.engine.backend`
for the backends and their registry, and :mod:`repro.engine.cache` for
the LRU context cache.
"""

from repro.engine.backend import (
    BackendInfo,
    EngineContext,
    MultiplierBackend,
    available_backends,
    get_backend,
)
from repro.engine.cache import CacheStats, ContextCache
from repro.engine.engine import BatchResult, Engine, EngineStats, MultiplyResult
from repro.engine.spec import EngineSpec

__all__ = [
    "BackendInfo",
    "BatchResult",
    "CacheStats",
    "ContextCache",
    "Engine",
    "EngineContext",
    "EngineSpec",
    "EngineStats",
    "MultiplierBackend",
    "MultiplyResult",
    "available_backends",
    "get_backend",
]
