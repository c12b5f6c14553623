"""Unified Engine API: one batched, context-cached entry point.

The engine layer unifies every arithmetic backend — the software
:class:`~repro.core.ModularMultiplier` family, the cycle-accurate ModSRAM
accelerator and the Table 3 PIM baselines — behind a single facade with
per-modulus context caching and batch execution::

    from repro.engine import Engine

    engine = Engine(backend="r4csa-lut", curve="bn254")
    result = engine.multiply(12345, 67890)          # MultiplyResult
    batch = engine.multiply_batch([(1, 2), (3, 4)]) # BatchResult
    field = engine.field()                           # engine-backed GF(p)
    ntt = engine.ntt(1024)                           # engine-backed NTT

See :mod:`repro.engine.engine` for the facade, :mod:`repro.engine.backend`
for the backend protocol and registry, and :mod:`repro.engine.cache` for
the LRU context cache.
"""

from repro.engine.backend import (
    Backend,
    BackendInfo,
    EngineContext,
    MultiplierBackend,
    PimBaselineBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.cache import CacheStats, ContextCache
from repro.engine.engine import BatchResult, Engine, EngineStats, MultiplyResult
from repro.engine.spec import EngineSpec

__all__ = [
    "Backend",
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
    "PimBaselineBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
