"""Declarative experiment requests and their in-process results.

An :class:`ExperimentSpec` names a registered experiment, overrides some of
its parameters and optionally declares sweep axes; :meth:`ExperimentSpec.points`
expands the cartesian grid.  An :class:`ExperimentResult` holds one executed
point: its resolved parameters, the live result object the experiment
returned and the seconds it took.  :meth:`ExperimentResult.render` and
:meth:`ExperimentResult.to_dict` read that object.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ConfigurationError

__all__ = ["ExperimentSpec", "ExperimentResult"]


def _frozen_mapping(value: Mapping[str, Any]) -> Mapping[str, Any]:
    return MappingProxyType(dict(value))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative request: one experiment, its parameters, its sweep grid.

    ``params`` override the experiment's registered defaults point-wise;
    ``sweep`` maps axis names to value lists and turns the spec into a
    cartesian grid.  Each of :meth:`points` is one call of
    :meth:`~repro.experiments.ExperimentDefinition.execute`.
    """

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    sweep: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _frozen_mapping(self.params))
        swept = {name: tuple(values) for name, values in dict(self.sweep).items()}
        for name, values in swept.items():
            if not values:
                raise ConfigurationError(
                    f"sweep axis {name!r} of experiment "
                    f"{self.experiment!r} has no values"
                )
            if name in self.params:
                raise ConfigurationError(
                    f"{name!r} appears both as a fixed parameter and a "
                    f"sweep axis of experiment {self.experiment!r}"
                )
        object.__setattr__(self, "sweep", MappingProxyType(swept))

    def points(self) -> List[Dict[str, Any]]:
        """Every concrete parameter dict of the grid (one without a sweep)."""
        base = dict(self.params)
        if not self.sweep:
            return [base]
        axes = sorted(self.sweep)
        grids = []
        for combo in itertools.product(*(self.sweep[axis] for axis in axes)):
            point = dict(base)
            point.update(dict(zip(axes, combo)))
            grids.append(point)
        return grids

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean representation."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "sweep": {name: list(values) for name, values in self.sweep.items()},
        }


@dataclass(frozen=True)
class ExperimentResult:
    """One executed experiment point: resolved parameters plus live result.

    ``result`` is the object the experiment's entry point returned
    (``Figure1Result``, ``Table3Result``, ...); its ``to_dict`` is the
    ``payload`` of :meth:`to_dict`.
    """

    experiment: str
    params: Dict[str, Any]
    result: Any
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """The result's own verdict (its ``passed``); True when it has none."""
        return bool(getattr(self.result, "passed", True))

    def render(self) -> str:
        """The result's text view."""
        return self.result.render()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean representation; ``payload`` is the result's ``to_dict``."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "payload": self.result.to_dict(),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialise :meth:`to_dict` to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)
