"""Registry of experiment definitions.

An :class:`ExperimentDefinition` wraps one ``reproduce_*`` entry point with
its parameter schema (defaults, ``--quick`` overrides, natural sweep axes)
and runs it in-process (:meth:`ExperimentDefinition.execute`).  The
built-in definitions — one per paper table/figure — are registered lazily
by :mod:`repro.experiments.builtin` so importing this package stays cheap
and free of import cycles with :mod:`repro.analysis`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentResult

__all__ = [
    "ExperimentDefinition",
    "REPORT_EXPERIMENTS",
    "register_experiment",
    "get_experiment",
    "available_experiments",
]

#: Report order: the experiments whose renders compose the consolidated
#: report, in the exact sequence the legacy serial path printed them.
#: Lives here (not in ``builtin``) so :mod:`repro.analysis.report` can
#: import it without touching the lazily-loaded definitions module.
REPORT_EXPERIMENTS = (
    "table1",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "table3",
    "headline",
    "chip-scaling",
)


@dataclass(frozen=True)
class ExperimentDefinition:
    """One registered experiment: entry point plus parameter/result schema."""

    #: Registry name (``"figure1"``, ``"table3"``, ``"headline"``, ...).
    name: str
    #: Short human-readable title for ``repro experiment list``.
    title: str
    #: What the experiment reproduces, one sentence.
    description: str
    #: Entry point; called with the fully resolved keyword parameters and
    #: returns a result object with ``render()`` and ``to_dict()``.
    run: Callable[..., Any]
    #: Every accepted parameter with its default value.
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Parameter overrides applied in quick mode (smaller sweeps and workloads).
    quick_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Parameters that make natural sweep/grid axes.
    sweep_axes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))
        object.__setattr__(
            self, "quick_overrides", MappingProxyType(dict(self.quick_overrides))
        )
        for name in self.quick_overrides:
            if name not in self.defaults:
                raise ConfigurationError(
                    f"quick override {name!r} of experiment {self.name!r} "
                    "is not a declared parameter"
                )
        for name in self.sweep_axes:
            if name not in self.defaults:
                raise ConfigurationError(
                    f"sweep axis {name!r} of experiment {self.name!r} "
                    "is not a declared parameter"
                )

    def resolve_params(
        self,
        params: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
    ) -> Dict[str, Any]:
        """Merge defaults, quick overrides and caller parameters.

        Rejects parameters the experiment does not declare, so typos fail
        loudly instead of silently running the default configuration.
        """
        params = dict(params or {})
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {unknown} for experiment "
                f"{self.name!r}; accepted: {sorted(self.defaults)}"
            )
        resolved = dict(self.defaults)
        if quick:
            resolved.update(self.quick_overrides)
        resolved.update(params)
        return resolved

    def execute(
        self,
        params: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
    ) -> ExperimentResult:
        """Run the entry point in-process at one parameter point.

        ``params`` are resolved as :meth:`resolve_params` does; the result
        holds them, the live result object and the entry point's seconds.
        """
        resolved = self.resolve_params(params, quick=quick)
        start = time.perf_counter()
        result = self.run(**resolved)
        elapsed = time.perf_counter() - start
        return ExperimentResult(self.name, resolved, result, elapsed)

    def describe(self) -> Dict[str, Any]:
        """Definition metadata as a JSON-friendly dictionary."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "defaults": dict(self.defaults),
            "quick_overrides": dict(self.quick_overrides),
            "sweep_axes": list(self.sweep_axes),
        }


_REGISTRY: Dict[str, ExperimentDefinition] = {}
_DEFAULTS_BUILT = False


def _build_default_experiments() -> None:
    global _DEFAULTS_BUILT
    if _DEFAULTS_BUILT:
        return
    _DEFAULTS_BUILT = True
    # Importing the module registers every built-in definition as a side
    # effect (mirrors the engine backend registry).
    import repro.experiments.builtin  # noqa: F401


def register_experiment(
    definition: ExperimentDefinition, replace: bool = False
) -> ExperimentDefinition:
    """Add an experiment to the registry (``replace=True`` to overwrite)."""
    _build_default_experiments()
    if definition.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"experiment {definition.name!r} already registered"
        )
    _REGISTRY[definition.name] = definition
    return definition


def get_experiment(name: str) -> ExperimentDefinition:
    """Look up a registered experiment by name."""
    _build_default_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None


def available_experiments() -> List[str]:
    """Sorted names of every registered experiment."""
    _build_default_experiments()
    return sorted(_REGISTRY)
