"""The unified entry point for every arithmetic backend.

:class:`Engine` is the facade the rest of the library (and external users)
go through instead of wiring multipliers, accelerators and fields together
by hand::

    >>> from repro.engine import Engine
    >>> engine = Engine(backend="r4csa-lut", curve="bn254")
    >>> int(engine.multiply(12345, 67890))  # doctest: +SKIP
    838102050

Behind the facade sits an LRU context cache keyed by ``(backend, modulus)``:
R4CSA-LUT overflow tables, Montgomery/Barrett constants and ModSRAM macro
sizing are derived once per modulus and shared across the ECC, ZKP and
analysis layers.  :meth:`Engine.multiply_batch` validates once and runs the
backend's inner loop directly, which is measurably faster than per-call
dispatch on NTT/MSM-sized workloads: perfbench's ``engine-bulk`` workload
times ``multiply_batch`` (``engine.batch_ns_per_pair``) against a per-call
``multiplier.multiply`` loop over a sample of the same pairs
(``engine.backend.ns_per_call``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.algorithms.base import MultiplierStats
from repro.engine.backend import (
    BackendInfo,
    EngineContext,
    MultiplierBackend,
    get_backend,
)
from repro.engine.cache import CacheStats, ContextCache
from repro.errors import ConfigurationError, ModulusError, OperandRangeError

__all__ = ["Engine", "EngineStats", "MultiplyResult", "BatchResult"]


def _resolve_curve_spec(name: str):
    """Look up a named curve spec, with the engine's error message."""
    from repro.ecc.curves_data import CURVE_SPECS

    key = name.lower()
    if key not in CURVE_SPECS:
        raise ConfigurationError(
            f"unknown curve {name!r}; available: {sorted(CURVE_SPECS)}"
        )
    return CURVE_SPECS[key]


@dataclass(frozen=True)
class MultiplyResult:
    """One modular product plus the execution metadata around it."""

    value: int
    backend: str
    modulus: int
    bitwidth: int
    #: Analytic hardware cycles of the operation, ``None`` when the
    #: backend has no cycle model.
    modeled_cycles: Optional[int]
    #: Whether the per-modulus context was already resident in the cache.
    cache_hit: bool

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiplyResult):
            return other.value == self.value and other.modulus == self.modulus
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        # Must match the int it compares equal to; results under different
        # moduli may collide, which is fine.
        return hash(self.value)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by ``repro --json``)."""
        return {
            "value": self.value,
            "value_hex": hex(self.value),
            "backend": self.backend,
            "modulus": self.modulus,
            "bitwidth": self.bitwidth,
            "modeled_cycles": self.modeled_cycles,
            "cache_hit": self.cache_hit,
        }


@dataclass(frozen=True)
class BatchResult:
    """Products of one batched run plus aggregate statistics."""

    values: Tuple[int, ...]
    backend: str
    modulus: int
    bitwidth: int
    #: Analytic hardware cycles for the whole batch (``None`` without a model).
    modeled_cycles: Optional[int]
    #: Whether the per-modulus context was already resident in the cache.
    cache_hit: bool
    #: Operation-counter deltas accumulated by the backend over the batch.
    stats: MultiplierStats

    @property
    def count(self) -> int:
        """Number of products in the batch."""
        return len(self.values)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by ``repro batch --json``)."""
        return {
            "values": list(self.values),
            "count": self.count,
            "backend": self.backend,
            "modulus": self.modulus,
            "bitwidth": self.bitwidth,
            "modeled_cycles": self.modeled_cycles,
            "cache_hit": self.cache_hit,
            "stats": self.stats.as_dict(),
        }


@dataclass(frozen=True)
class EngineStats:
    """One engine's operation counters plus its context-cache counters.

    Behaves like the :class:`MultiplierStats` it wraps (every counter
    attribute delegates), with the cache hit/miss/eviction accounting the
    serving layer watches exposed alongside as :attr:`cache`.
    """

    operations: MultiplierStats
    cache: CacheStats

    def __getattr__(self, name: str):
        # Only reached for attributes not on EngineStats itself: delegate
        # the MultiplierStats counters (multiplications, iterations, ...).
        # Dunder/field names must fail plainly (pickling probes them before
        # the fields exist, which would otherwise recurse).
        if name.startswith("_") or name in ("operations", "cache"):
            raise AttributeError(name)
        return getattr(self.operations, name)

    def as_dict(self) -> Dict[str, object]:
        """Counters as a plain dictionary, cache counters under ``cache``."""
        return {**self.operations.as_dict(), "cache": self.cache.as_dict()}


class Engine:
    """One batched, context-cached entry point for every arithmetic backend.

    Parameters
    ----------
    backend:
        Registry name (``"r4csa-lut"``, ``"montgomery"``, ``"modsram"``,
        ...) or a :class:`MultiplierBackend` instance.
    curve:
        Optional named curve (``"bn254"``, ``"secp256k1"``, ``"p256"``);
        its base-field prime becomes the default modulus and its scalar
        field the default NTT modulus.
    modulus:
        Explicit default modulus (overrides ``curve``'s base field).
    cache_size:
        Maximum number of resident ``(backend, modulus)`` contexts.
    """

    def __init__(
        self,
        backend: Union[str, MultiplierBackend] = "r4csa-lut",
        curve: Optional[str] = None,
        modulus: Optional[int] = None,
        cache_size: int = 32,
    ) -> None:
        self._backend = (
            backend if isinstance(backend, MultiplierBackend) else get_backend(backend)
        )
        self._retired_stats = MultiplierStats()
        self._cache = ContextCache(cache_size, on_evict=self._retire_context)
        self._curve_spec = None if curve is None else _resolve_curve_spec(curve)
        self._default_modulus = modulus
        if self._default_modulus is None and self._curve_spec is not None:
            self._default_modulus = self._curve_spec.field_modulus

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def info(self) -> BackendInfo:
        """Capability metadata of the configured backend."""
        return self._backend.info

    @property
    def default_modulus(self) -> Optional[int]:
        """The modulus used when a call does not pass one explicitly."""
        return self._default_modulus

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the context cache."""
        return self._cache.stats

    def stats(self) -> EngineStats:
        """Aggregate operation counters across every context (live + evicted).

        Always a fresh snapshot — mutating it never touches the engine's
        own accounting.  The returned :class:`EngineStats` also carries the
        context cache's hit/miss/eviction counters (``stats().cache``), so
        serving-layer cache behaviour is observable from one call.
        """
        merged = self._retired_stats.merged_with(MultiplierStats())
        for context in self._cache.contexts():
            merged = merged.merged_with(context.stats)
        return EngineStats(operations=merged, cache=self._cache.stats.snapshot())

    def spec(self) -> "EngineSpec":
        """This engine's configuration as a portable, pickle-safe recipe.

        The serving pool ships the spec to worker processes, each of which
        rebuilds an equivalent engine with :meth:`EngineSpec.build`.  Only
        registry-resolvable backends can be specced: an engine wrapping an
        unregistered :class:`MultiplierBackend` *instance* (one built with
        constructor options) has no portable name.
        """
        from repro.engine.spec import EngineSpec

        name = self.info.name
        try:
            registered = get_backend(name)
        except ConfigurationError:
            registered = None
        if registered is not self._backend:
            raise ConfigurationError(
                f"engine backend {name!r} is an unregistered instance; "
                "register its multiplier (register_multiplier) before "
                "deriving a spec"
            )
        return EngineSpec(
            backend=name,
            curve=None if self._curve_spec is None else self._curve_spec.name,
            modulus=self._default_modulus,
            cache_size=self._cache.max_entries,
        )

    def _retire_context(self, context: EngineContext) -> None:
        self._retired_stats = self._retired_stats.merged_with(context.stats)

    # ------------------------------------------------------------------ #
    # context access
    # ------------------------------------------------------------------ #
    def _resolve_modulus(self, modulus: Optional[int]) -> int:
        if modulus is not None:
            return modulus
        if self._default_modulus is None:
            raise ModulusError(
                "no modulus given and the engine has no default; construct "
                "the Engine with curve=... or modulus=..., or pass modulus "
                "explicitly"
            )
        return self._default_modulus

    def context(self, modulus: Optional[int] = None) -> EngineContext:
        """The warmed per-modulus context (created and cached on first use)."""
        context, _ = self._lookup(modulus)
        return context

    def _lookup(self, modulus: Optional[int]) -> Tuple[EngineContext, bool]:
        return self._cache.get_or_create(self._backend, self._resolve_modulus(modulus))

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def multiply(self, a: int, b: int, modulus: Optional[int] = None) -> MultiplyResult:
        """One validated modular multiplication through the backend."""
        context, hit = self._lookup(modulus)
        value = context.multiplier.multiply(a, b, context.modulus)
        return MultiplyResult(
            value=value,
            backend=context.info.name,
            modulus=context.modulus,
            bitwidth=context.bitwidth,
            modeled_cycles=context.modeled_cycles_per_multiply,
            cache_hit=hit,
        )

    def multiply_batch(
        self,
        pairs: Iterable[Tuple[int, int]],
        modulus: Optional[int] = None,
    ) -> BatchResult:
        """Multiply many operand pairs against one cached context.

        The modulus is resolved and its context fetched exactly once, the
        operands are validated in a single pass, and the loop then calls the
        backend's algorithm body directly — skipping the per-call dispatch,
        validation and result-object overhead of :meth:`multiply`.  The
        per-modulus precomputation therefore does not grow with the batch
        size (see ``tests/engine/test_engine.py``).
        """
        context, hit = self._lookup(modulus)
        p = context.modulus
        work: List[Tuple[int, int]] = list(pairs)
        for a, b in work:
            if not 0 <= a < p:
                raise OperandRangeError(
                    f"operand a must satisfy 0 <= a < p, got a={a}, p={p}"
                )
            if not 0 <= b < p:
                raise OperandRangeError(
                    f"operand b must satisfy 0 <= b < p, got b={b}, p={p}"
                )

        multiplier = context.multiplier
        before = multiplier.stats.as_dict()
        raw = multiplier._multiply
        values = tuple(raw(a, b, p) for a, b in work)
        multiplier.stats.multiplications += len(work)

        delta = MultiplierStats()
        after = multiplier.stats.as_dict()
        for name, total in after.items():
            setattr(delta, name, total - before[name])

        per_call = context.modeled_cycles_per_multiply
        return BatchResult(
            values=values,
            backend=context.info.name,
            modulus=p,
            bitwidth=context.bitwidth,
            modeled_cycles=None if per_call is None else per_call * len(work),
            cache_hit=hit,
            stats=delta,
        )

    # ------------------------------------------------------------------ #
    # application substrates
    # ------------------------------------------------------------------ #
    def field(self, modulus: Optional[int] = None):
        """A :class:`~repro.ecc.field.PrimeField` backed by this engine.

        The field shares the cached context's multiplier, so ECC code built
        on it reuses the same per-modulus precomputation as every other
        caller of this engine.
        """
        from repro.ecc.field import PrimeField

        context = self.context(modulus)
        cached = context.extras.get("field")
        if cached is None:
            cached = PrimeField(context.modulus, multiplier=context.multiplier)
            context.extras["field"] = cached
        return cached

    def curve(self, name: Optional[str] = None):
        """An engine-backed :class:`~repro.ecc.curve.EllipticCurve`.

        ``name`` defaults to the curve the engine was constructed with.
        """
        from repro.ecc.curves_data import build_curve

        if name is None:
            if self._curve_spec is None:
                raise ConfigurationError(
                    "no curve name given and the engine was constructed "
                    "without one"
                )
            spec = self._curve_spec
        else:
            spec = _resolve_curve_spec(name)
        context = self.context(spec.field_modulus)
        cache_key = f"curve:{spec.name}"
        cached = context.extras.get(cache_key)
        if cached is None:
            cached = build_curve(spec, field=self.field(spec.field_modulus))
            context.extras[cache_key] = cached
        return cached

    def ntt(self, size: int, modulus: Optional[int] = None):
        """An engine-backed :class:`~repro.zkp.ntt.NttContext`.

        When the engine was constructed with a curve that defines a scalar
        field (BN254), that NTT-friendly prime is the default modulus here —
        the base field prime generally is not NTT friendly.
        """
        from repro.zkp.ntt import NttContext

        if modulus is None and self._curve_spec is not None:
            modulus = self._curve_spec.scalar_field_modulus
        context = self.context(modulus)
        cache_key = f"ntt:{size}"
        cached = context.extras.get(cache_key)
        if cached is None:
            cached = NttContext(
                context.modulus, size, multiplier=context.multiplier
            )
            context.extras[cache_key] = cached
        return cached

    def __repr__(self) -> str:
        default = (
            f", default_modulus={self._default_modulus:#x}"
            if self._default_modulus is not None
            else ""
        )
        return f"Engine(backend={self.info.name!r}{default})"
