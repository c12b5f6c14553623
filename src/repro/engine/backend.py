"""The backend protocol behind the unified Engine API.

Every arithmetic backend the library knows about — the software
:class:`~repro.core.ModularMultiplier` family, the cycle-accurate ModSRAM
accelerator adapter and the prior-work PIM designs of Table 3 — is exposed
through one :class:`Backend` interface:

* :class:`BackendInfo` carries the capability metadata a caller needs to
  pick a backend (``has_cycle_model``, ``direct_form``,
  ``supported_bitwidths``, backend kind);
* :meth:`Backend.create_context` builds a *warmed* per-modulus
  :class:`EngineContext` — Montgomery/Barrett constants, R4CSA-LUT overflow
  tables and ModSRAM macro sizing are derived exactly once per modulus and
  then shared by every caller through the engine's context cache.

The registry wraps every registered multiplier in a
:class:`MultiplierBackend` under the multiplier's name (``"r4csa-lut"``,
``"montgomery"``, ``"modsram"``, ...), which reads the ModSRAM tier
adapters' tier and macro count from the adapter itself, and adds the
Table 3 PIM baselines under ``pim-*`` aliases (``"pim-mentt"``,
``"pim-bpntt"``, ...), whose functional results come from the schoolbook
oracle while their cycle models come from the published design data.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.algorithms.base import (
    ModularMultiplier,
    available_multipliers,
    get_multiplier,
)
from repro.core.algorithms.schoolbook import SchoolbookMultiplier
from repro.errors import ConfigurationError, ModulusError

__all__ = [
    "BackendInfo",
    "EngineContext",
    "Backend",
    "MultiplierBackend",
    "PimBaselineBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class BackendInfo:
    """Capability metadata of one arithmetic backend."""

    #: Registry name (``"r4csa-lut"``, ``"modsram"``, ``"pim-mentt"``, ...).
    name: str
    #: Human-readable description for reports and ``repro backends``.
    description: str
    #: ``"software"``, ``"accelerator"`` or ``"pim-baseline"``.
    kind: str
    #: Whether :meth:`Backend.modeled_cycles` returns a hardware cycle count.
    has_cycle_model: bool
    #: Whether results come out in direct (non-Montgomery) form.
    direct_form: bool
    #: Bitwidths the original design natively supports (``None`` = any).
    supported_bitwidths: Optional[Tuple[int, ...]] = None
    #: Simulation fidelity tier of accelerator backends (``"cycle"``,
    #: ``"analytical"``, ``"hdl"``; ``None`` for non-tiered backends).
    fidelity: Optional[str] = None
    #: Macro count of chip-level backends (``None`` for single-macro ones).
    macros: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        """Metadata as a plain dictionary (for ``--json`` output)."""
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "has_cycle_model": self.has_cycle_model,
            "direct_form": self.direct_form,
            "supported_bitwidths": (
                list(self.supported_bitwidths)
                if self.supported_bitwidths is not None
                else None
            ),
            "fidelity": self.fidelity,
            "macros": self.macros,
        }


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

    def multiply(self, a: int, b: int) -> int:
        """One validated multiplication through this context's backend."""
        return self.multiplier.multiply(a, b, self.modulus)

    @property
    def stats(self):
        """The operation counters of this context's multiplier."""
        return self.multiplier.stats

    def __repr__(self) -> str:
        return (
            f"EngineContext(backend={self.info.name!r}, "
            f"modulus={self.modulus:#x}, bitwidth={self.bitwidth})"
        )


class Backend(abc.ABC):
    """One arithmetic backend: metadata plus per-modulus context creation."""

    info: BackendInfo

    @abc.abstractmethod
    def create_context(self, modulus: int) -> EngineContext:
        """Build a warmed context for ``modulus`` (precomputation included)."""

    def modeled_cycles(self, bitwidth: int) -> Optional[int]:
        """Hardware cycles of one multiplication, ``None`` without a model."""
        return None

    @staticmethod
    def _validate_modulus(modulus: int) -> None:
        if modulus <= 2:
            raise ModulusError(f"modulus must be greater than 2, got {modulus}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.info.name!r})"


class MultiplierBackend(Backend):
    """Adapter exposing a registered :class:`ModularMultiplier` as a backend.

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
        self._validate_modulus(modulus)
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

    def modeled_cycles(self, bitwidth: int) -> Optional[int]:
        if not self.info.has_cycle_model:
            return None
        return self._new_multiplier().cycles(bitwidth)


class PimBaselineBackend(Backend):
    """A Table 3 prior-work PIM design as an engine backend.

    The published designs compute the same mathematical function, so the
    functional result comes from the schoolbook oracle; the value a caller
    gets from this backend is the design's *cycle model* (when the paper
    derives one) and its capability metadata.
    """

    def __init__(self, design_key: str) -> None:
        from repro.baselines.base import get_design

        self._spec = get_design(design_key)
        self.info = BackendInfo(
            name=f"pim-{design_key}",
            description=(
                f"{self._spec.label} ({self._spec.reference}): "
                f"{self._spec.computation_method} on {self._spec.cell_type} "
                f"at {self._spec.technology_nm} nm; functional results via "
                "the schoolbook oracle."
            ),
            kind="pim-baseline",
            has_cycle_model=self._spec.cycle_model is not None,
            direct_form="montgomery" not in self._spec.computation_method.lower(),
            supported_bitwidths=tuple(self._spec.native_bitwidths),
        )

    @property
    def design(self):
        """The underlying :class:`~repro.baselines.base.PimDesignSpec`."""
        return self._spec

    def create_context(self, modulus: int) -> EngineContext:
        self._validate_modulus(modulus)
        bitwidth = modulus.bit_length()
        return EngineContext(
            info=self.info,
            modulus=modulus,
            bitwidth=bitwidth,
            multiplier=SchoolbookMultiplier(),
            modeled_cycles_per_multiply=self._spec.cycles(bitwidth),
        )

    def modeled_cycles(self, bitwidth: int) -> Optional[int]:
        return self._spec.cycles(bitwidth)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Backend] = {}
_DEFAULTS_BUILT = False


def _build_default_backends() -> None:
    global _DEFAULTS_BUILT
    if _DEFAULTS_BUILT:
        return
    # Importing these modules registers the ModSRAM tier adapters and the
    # Table 3 design specs as side effects.
    import repro.baselines  # noqa: F401
    import repro.modsram.multiplier  # noqa: F401
    from repro.baselines.base import available_designs

    for name in available_multipliers():
        if name not in _REGISTRY:
            _REGISTRY[name] = MultiplierBackend(name)
    for key in available_designs():
        if key == "modsram":  # covered by the accelerator backend above
            continue
        alias = f"pim-{key}"
        if alias not in _REGISTRY:
            _REGISTRY[alias] = PimBaselineBackend(key)
    _DEFAULTS_BUILT = True


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend to the registry (``replace=True`` to overwrite)."""
    _build_default_backends()
    key = backend.info.name
    if key in _REGISTRY and not replace:
        raise ConfigurationError(f"backend {key!r} already registered")
    _REGISTRY[key] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    _build_default_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    _build_default_backends()
    return sorted(_REGISTRY)
