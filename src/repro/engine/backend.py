"""The backend behind the unified Engine API.

Every registered :class:`~repro.core.ModularMultiplier` (the software
family and the ModSRAM tier adapters) is an engine backend under its
registry name (``"r4csa-lut"``, ``"montgomery"``, ``"modsram"``, ...):

* :class:`BackendInfo` carries the capability metadata a caller needs to
  pick a backend (``has_cycle_model``, ``direct_form``, backend kind, and
  the tier and macro count the ModSRAM adapters report);
* :meth:`MultiplierBackend.create_context` builds a *warmed* per-modulus
  :class:`EngineContext` — Montgomery/Barrett constants, R4CSA-LUT overflow
  tables and ModSRAM macro sizing are derived exactly once per modulus and
  then shared by every caller through the engine's context cache.

:func:`get_backend` keeps one backend per registered multiplier, so a
multiplier added with :func:`~repro.core.register_multiplier` is a backend
too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.algorithms.base import (
    ModularMultiplier,
    available_multipliers,
    get_multiplier,
)
from repro.errors import ConfigurationError, ModulusError

__all__ = [
    "BackendInfo",
    "EngineContext",
    "MultiplierBackend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class BackendInfo:
    """Capability metadata of one arithmetic backend."""

    #: Registry name (``"r4csa-lut"``, ``"modsram"``, ...).
    name: str
    #: Human-readable description for reports and ``repro backends``.
    description: str
    #: ``"software"`` or ``"accelerator"``.
    kind: str
    #: Whether the multiplier has a hardware cycle model.
    has_cycle_model: bool
    #: Whether results come out in direct (non-Montgomery) form.
    direct_form: bool
    #: Simulation fidelity tier of accelerator backends (``"cycle"``,
    #: ``"analytical"``, ``"hdl"``; ``None`` for non-tiered backends).
    fidelity: Optional[str] = None
    #: Macro count of chip-level backends (``None`` for single-macro ones).
    macros: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        """Metadata as a plain dictionary (for ``--json`` output)."""
        return asdict(self)


@dataclass
class EngineContext:
    """Warmed per-modulus state of one backend.

    Holds a multiplier instance dedicated to this modulus (so its internal
    depth-one caches never thrash between moduli) plus a scratch area for
    derived objects the engine builds lazily (the :class:`PrimeField`, the
    engine-backed curve, NTT contexts).
    """

    info: BackendInfo
    modulus: int
    bitwidth: int
    multiplier: ModularMultiplier
    #: Analytic cycles of one multiplication at this bitwidth, resolved once
    #: at context creation so the hot paths never recompute it.
    modeled_cycles_per_multiply: Optional[int] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def stats(self):
        """The operation counters of this context's multiplier."""
        return self.multiplier.stats

    def __repr__(self) -> str:
        return (
            f"EngineContext(backend={self.info.name!r}, "
            f"modulus={self.modulus:#x}, bitwidth={self.bitwidth})"
        )


class MultiplierBackend:
    """A registered :class:`ModularMultiplier` as an engine backend.

    ``multiplier_kwargs`` go to the multiplier's constructor, for example
    ``MultiplierBackend("modsram-chip", macros=8)``.  ``create_context``
    instantiates a fresh multiplier per modulus and warms it through
    :meth:`ModularMultiplier.prepare` (Montgomery constants, Barrett
    reciprocals, R4CSA-LUT overflow tables, ModSRAM macro sizing), so the
    first batched call already runs hot.  A multiplier that names a
    simulation ``tier`` (the ModSRAM adapters) makes an accelerator
    backend of that tier, with the adapter's macro count.
    """

    def __init__(self, multiplier_name: str, **multiplier_kwargs: Any) -> None:
        import repro.modsram.multiplier  # noqa: F401 - registers the adapters

        self._multiplier_cls = get_multiplier(multiplier_name)
        self._multiplier_kwargs = multiplier_kwargs
        probe = self._new_multiplier()
        tier = getattr(probe, "tier", None)
        self.info = BackendInfo(
            name=multiplier_name,
            description=probe.description or type(probe).__doc__ or "",
            kind="software" if tier is None else "accelerator",
            has_cycle_model=probe.cycles(256) is not None,
            direct_form=probe.direct_form,
            fidelity=tier,
            macros=getattr(probe, "macros", None),
        )

    def _new_multiplier(self) -> ModularMultiplier:
        return self._multiplier_cls(**self._multiplier_kwargs)

    def create_context(self, modulus: int) -> EngineContext:
        """Build a warmed context for ``modulus`` (precomputation included)."""
        if modulus <= 2:
            raise ModulusError(f"modulus must be greater than 2, got {modulus}")
        multiplier = self._new_multiplier()
        multiplier.prepare(modulus)
        bitwidth = modulus.bit_length()
        return EngineContext(
            info=self.info,
            modulus=modulus,
            bitwidth=bitwidth,
            multiplier=multiplier,
            modeled_cycles_per_multiply=multiplier.cycles(bitwidth),
        )


_BACKENDS: Dict[str, MultiplierBackend] = {}


def get_backend(name: str) -> MultiplierBackend:
    """The backend of the registered multiplier ``name``, built once."""
    backend = _BACKENDS.get(name)
    if backend is None:
        if name not in available_backends():
            raise ConfigurationError(
                f"unknown backend {name!r}; available: {available_backends()}"
            )
        backend = _BACKENDS.setdefault(name, MultiplierBackend(name))
    return backend


def available_backends() -> List[str]:
    """Sorted names of every registered multiplier."""
    import repro.modsram.multiplier  # noqa: F401 - registers the adapters

    return available_multipliers()
