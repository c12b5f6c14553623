"""A cheap, pickle-safe recipe for rebuilding an :class:`Engine`.

The sharded serving pool (:mod:`repro.service.pool`) runs each shard in
its own OS process, and every worker needs an engine of its own — engines
hold live multiplier state and an LRU context cache, neither of which
should cross a process boundary.  :class:`EngineSpec` captures the four
constructor inputs that *define* an engine (backend registry name, curve
name, default modulus, cache capacity) as plain picklable values, so the
parent ships the spec over the wire and each worker calls
:meth:`EngineSpec.build` to warm its own private engine.

Only registry-resolvable backends can be specced: a backend passed to the
engine as a live instance has no portable name to rebuild from.  A custom
multiplier registered through :func:`~repro.core.register_multiplier` is
a registered backend, so it specs fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.engine import Engine

__all__ = ["EngineSpec"]


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to reconstruct an equivalent :class:`Engine`.

    Two engines built from equal specs are arithmetically interchangeable:
    same backend algorithm, same default modulus resolution, same cache
    capacity.  Their *runtime* state (context caches, operation counters)
    is of course independent — that is the point.
    """

    #: Backend registry name (``"schoolbook"``, ``"r4csa-lut"``,
    #: ``"montgomery"``, ...).  This is the one serving default: pool
    #: shards, fleet workers, ``Server``, the self-test and the ``serve``,
    #: ``submit`` and ``cluster router`` verbs all take it from here.
    #: ``schoolbook`` is Python's C-level ``a * b % p``, the fastest
    #: bit-identical kernel; the paper's algorithms stay opt-in by name.
    backend: str = "schoolbook"
    #: Named curve whose base field becomes the default modulus.
    curve: Optional[str] = None
    #: Explicit default modulus (overrides ``curve``'s base field).
    modulus: Optional[int] = None
    #: Maximum resident ``(backend, modulus)`` contexts.
    cache_size: int = 32

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigurationError(
                f"EngineSpec needs a backend registry name, got {self.backend!r}"
            )
        if self.cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be positive, got {self.cache_size}"
            )

    def validate(self) -> "EngineSpec":
        """Fail fast (in the parent) if the backend name cannot resolve."""
        from repro.engine.backend import get_backend

        get_backend(self.backend)  # raises ConfigurationError when unknown
        return self

    def build(self) -> "Engine":
        """A fresh engine with this spec's configuration (cold caches)."""
        from repro.engine.engine import Engine

        return Engine(
            backend=self.backend,
            curve=self.curve,
            modulus=self.modulus,
            cache_size=self.cache_size,
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-value form (what actually crosses the process boundary)."""
        return {
            "backend": self.backend,
            "curve": self.curve,
            "modulus": self.modulus,
            "cache_size": self.cache_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineSpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        modulus = data.get("modulus")
        return cls(
            backend=str(data["backend"]),
            curve=(None if data.get("curve") is None else str(data["curve"])),
            modulus=None if modulus is None else int(modulus),
            cache_size=int(data.get("cache_size", 32)),
        )
