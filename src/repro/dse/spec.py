"""Declarative sweep-spec format for design-space exploration.

A sweep spec is a small JSON (or YAML, when PyYAML is importable)
document in the spirit of rad_gen's ``sram_sweep.yml``: a set of *fixed*
parameter values plus *axes* — lists of values whose cartesian product
expands into :class:`DesignPoint`\\ s.  Expansion is deterministic and
order-stable: axes are iterated in sorted key order, values in the order
the spec lists them, so the same spec always yields the same point
sequence.

Every parameter is validated eagerly with the offending key named in the
:class:`~repro.errors.ConfigurationError`, so a thousand-point sweep
fails at parse time, not at point number 713.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.modsram.chip import SCHEDULER_POLICIES
from repro.modsram.fidelity import Fidelity
from repro.modsram.geometry import SUPPORTED_RADICES, MacroGeometry

__all__ = [
    "DesignPoint",
    "SweepSpec",
    "DSE_WORKLOADS",
    "DSE_FIDELITIES",
    "default_sweep_spec",
    "load_spec",
    "parse_spec",
]

#: Workload streams a design point can be evaluated against.  ``mixed``
#: interleaves the ECDSA, NTT and MSM generators round-robin.
DSE_WORKLOADS = ("ecdsa-sign", "scalar-mult", "ntt", "msm", "mixed")

#: Fidelity tiers a point's probe verification can run at.  ``analytical``
#: is pure closed form; ``cycle`` and ``hdl`` additionally race one seeded
#: multiplication through the executable tier and require field-by-field
#: report agreement (radix-4, single-bank, 8-overflow-row geometries only).
DSE_FIDELITIES = tuple(tier.value for tier in Fidelity)

#: The executable memory map's row floor (operands + radix-4 LUTs +
#: intermediates); configs below it cannot be built even when a smaller
#: radix would fit its own map into fewer rows.
_CONFIG_MIN_ROWS = 18


def _require_int(key: str, value: Any, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"spec key {key!r} must be an integer, got {value!r}"
        )
    if not low <= value <= high:
        raise ConfigurationError(
            f"spec key {key!r} must be in [{low}, {high}], got {value}"
        )
    return value


def _require_choice(key: str, value: Any, choices: Sequence[Any]) -> Any:
    if value not in choices:
        raise ConfigurationError(
            f"spec key {key!r} must be one of {tuple(choices)}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class DesignPoint:
    """One fully specified configuration of the design space.

    The defaults are the paper's design point (64 × 256 single-bank
    radix-4 macro, 65 nm, 256-bit operands, one macro, LUT-aware
    scheduling).  Construction validates every field and raises
    :class:`~repro.errors.ConfigurationError` naming the offending key.
    """

    bitwidth: int = 256
    rows: int = 64
    #: ``None`` sizes the array to the operand width (the paper's rule).
    columns: Optional[int] = None
    banks: int = 1
    radix: int = 4
    overflow_rows: int = 8
    technology_nm: int = 65
    macros: int = 1
    scheduler: str = "lut-aware"
    workload: str = "ecdsa-sign"
    #: Stream length cap — jobs actually scheduled per point.
    workload_ops: int = 512
    fidelity: str = "analytical"

    def __post_init__(self) -> None:
        _require_int("bitwidth", self.bitwidth, 4, 4096)
        _require_int("rows", self.rows, _CONFIG_MIN_ROWS, 65536)
        if self.columns is not None:
            _require_int("columns", self.columns, 4, 65536)
            if self.columns < self.bitwidth:
                raise ConfigurationError(
                    f"spec key 'columns' must cover the operand width: "
                    f"columns={self.columns} < bitwidth={self.bitwidth}"
                )
        _require_int("banks", self.banks, 1, 64)
        _require_choice("radix", self.radix, SUPPORTED_RADICES)
        _require_int("overflow_rows", self.overflow_rows, 2, 64)
        _require_int("technology_nm", self.technology_nm, 1, 1000)
        _require_int("macros", self.macros, 1, 1024)
        _require_choice("scheduler", self.scheduler, SCHEDULER_POLICIES)
        _require_choice("workload", self.workload, DSE_WORKLOADS)
        _require_int("workload_ops", self.workload_ops, 1, 1_000_000)
        _require_choice("fidelity", self.fidelity, DSE_FIDELITIES)
        # Geometry-level cross checks (banks dividing rows, the memory map
        # fitting) — MacroGeometry's errors name the offending field.
        geometry = self.geometry()
        if self.fidelity != "analytical":
            # The probe races a tier that runs only the paper's macro.
            try:
                geometry.check_executable()
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"spec key 'fidelity' = {self.fidelity!r}: {exc}"
                ) from None

    def resolved_columns(self) -> int:
        """The array width this point implies (columns or the bitwidth)."""
        return self.columns if self.columns is not None else self.bitwidth

    def geometry(self) -> MacroGeometry:
        """The :class:`MacroGeometry` this point describes."""
        return MacroGeometry(
            rows=self.rows,
            columns=self.resolved_columns(),
            banks=self.banks,
            radix=self.radix,
            overflow_rows=self.overflow_rows,
        )

    def to_params(self) -> Dict[str, Any]:
        """JSON-clean field mapping (the ``dse-point`` experiment params)."""
        return {
            "bitwidth": self.bitwidth,
            "rows": self.rows,
            "columns": self.columns,
            "banks": self.banks,
            "radix": self.radix,
            "overflow_rows": self.overflow_rows,
            "technology_nm": self.technology_nm,
            "macros": self.macros,
            "scheduler": self.scheduler,
            "workload": self.workload,
            "workload_ops": self.workload_ops,
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "DesignPoint":
        """Rebuild a point from :meth:`to_params` output, revalidating."""
        known = {f: params[f] for f in _POINT_FIELDS if f in params}
        unknown = set(params) - set(_POINT_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"spec key {sorted(unknown)[0]!r} is not a design-point "
                f"parameter; valid keys: {sorted(_POINT_FIELDS)}"
            )
        return cls(**known)


_POINT_FIELDS: Tuple[str, ...] = tuple(DesignPoint.__dataclass_fields__)


def _check_axis_values(key: str, values: Any) -> List[Any]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise ConfigurationError(
            f"spec key {key!r} must map to a list of values, got {values!r}"
        )
    values = list(values)
    if not values:
        raise ConfigurationError(
            f"spec key {key!r} must list at least one value"
        )
    kinds = {type(value) for value in values}
    if len(kinds) > 1 or any(
        isinstance(value, (list, tuple, dict, set)) for value in values
    ):
        raise ConfigurationError(
            f"spec key {key!r} must be a flat list of uniform scalars, "
            f"got {values!r}"
        )
    return values


@dataclass(frozen=True)
class SweepSpec:
    """A declarative design-space sweep: fixed values plus swept axes.

    ``fixed`` pins parameters for every point; ``axes`` maps parameter
    names to value lists whose cartesian product is the sweep grid.
    :meth:`expand` materialises the grid as validated
    :class:`DesignPoint`\\ s in a deterministic, order-stable sequence.
    """

    name: str = "sweep"
    description: str = ""
    fixed: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"spec key 'name' must be a non-empty string, "
                f"got {self.name!r}"
            )
        if not isinstance(self.fixed, Mapping):
            raise ConfigurationError(
                f"spec key 'fixed' must be a mapping, got {self.fixed!r}"
            )
        if not isinstance(self.axes, Mapping):
            raise ConfigurationError(
                f"spec key 'axes' must be a mapping, got {self.axes!r}"
            )
        for key in self.fixed:
            if key not in _POINT_FIELDS:
                raise ConfigurationError(
                    f"spec key {key!r} (under 'fixed') is not a "
                    f"design-point parameter; valid keys: "
                    f"{sorted(_POINT_FIELDS)}"
                )
        checked: Dict[str, List[Any]] = {}
        for key, values in self.axes.items():
            if key not in _POINT_FIELDS:
                raise ConfigurationError(
                    f"spec key {key!r} (under 'axes') is not a "
                    f"design-point parameter; valid keys: "
                    f"{sorted(_POINT_FIELDS)}"
                )
            if key in self.fixed:
                raise ConfigurationError(
                    f"spec key {key!r} appears under both 'fixed' and "
                    f"'axes'; pick one"
                )
            checked[key] = _check_axis_values(key, values)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "axes", checked)

    @property
    def point_count(self) -> int:
        """Grid size without materialising it."""
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def expand(self, max_points: int = 200_000) -> List[DesignPoint]:
        """The full cartesian grid as validated design points.

        Deterministic and order-stable: axes iterate in sorted key order,
        values in spec order, as the ``dse-point`` experiment's grid
        (:meth:`~repro.experiments.spec.ExperimentSpec.points`) expands.
        Invalid cross-products (e.g. ``columns`` below a swept
        ``bitwidth``) raise with the offending key named.
        """
        if self.point_count > max_points:
            raise ConfigurationError(
                f"spec key 'axes' expands to {self.point_count} points, "
                f"more than the {max_points}-point limit"
            )
        grid = ExperimentSpec("dse-point", self.fixed, self.axes).points()
        return [DesignPoint(**values) for values in grid]

    def with_fixed(self, **overrides: Any) -> "SweepSpec":
        """A copy pinning extra fixed values (dropping any matching axes)."""
        fixed = dict(self.fixed)
        fixed.update(overrides)
        axes = {
            key: values
            for key, values in self.axes.items()
            if key not in overrides
        }
        return replace(self, fixed=fixed, axes=axes)

    def quick(self, per_axis: int = 2) -> "SweepSpec":
        """A shrunk copy keeping the first ``per_axis`` values per axis.

        Used by ``--quick`` paths: same shape and validation, a grid small
        enough for smoke tests; the probe fidelity drops to analytical.
        """
        if per_axis < 1:
            raise ConfigurationError(
                f"a sample keeps at least 1 value per axis, got {per_axis}"
            )
        fixed = dict(self.fixed)
        fixed["fidelity"] = "analytical"
        axes = {
            key: values[:per_axis]
            for key, values in self.axes.items()
            if key != "fidelity"
        }
        return replace(
            self, name=f"{self.name}-quick", fixed=fixed, axes=axes
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean representation (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "fixed": dict(self.fixed),
            "axes": {key: list(values) for key, values in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build and validate a spec from a parsed JSON/YAML document."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a sweep spec must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"name", "description", "fixed", "axes"}
        if unknown:
            raise ConfigurationError(
                f"spec key {sorted(unknown)[0]!r} is not a sweep-spec "
                "section; valid sections: 'name', 'description', 'fixed', "
                "'axes'"
            )
        return cls(
            name=data.get("name", "sweep"),
            description=data.get("description", ""),
            fixed=dict(data.get("fixed", {})),
            axes={k: v for k, v in dict(data.get("axes", {})).items()},
        )


def parse_spec(text: str, source: str = "<string>") -> SweepSpec:
    """Parse a sweep spec from JSON (always) or YAML (when available)."""
    try:
        document = json.loads(text)
    except ValueError as json_error:
        try:
            import yaml  # type: ignore
        except ImportError:
            raise ConfigurationError(
                f"{source}: not valid JSON ({json_error}) and PyYAML is "
                "not installed for YAML specs"
            ) from None
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as yaml_error:
            raise ConfigurationError(
                f"{source}: neither valid JSON ({json_error}) nor valid "
                f"YAML ({yaml_error})"
            ) from None
    return SweepSpec.from_dict(document)


def load_spec(path: str) -> SweepSpec:
    """Load and validate a sweep-spec file (JSON or YAML by content)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read sweep spec {path}: {error}")
    return parse_spec(text, source=path)


def default_sweep_spec() -> SweepSpec:
    """The built-in demonstration sweep: 640 points around the paper point.

    Bitwidth × rows × macro count × scheduler policy × workload — all
    closed-form (analytical fidelity), so the full grid expands and
    evaluates in about a second while still exposing a
    real throughput/energy/area trade-off surface.
    """
    return SweepSpec(
        name="modsram-default",
        description=(
            "Paper-point neighbourhood: operand width x array depth x "
            "macro count x scheduler policy x workload (640 points)"
        ),
        fixed={
            "technology_nm": 65,
            "banks": 1,
            "radix": 4,
            "workload_ops": 384,
            "fidelity": "analytical",
        },
        axes={
            "bitwidth": [64, 128, 192, 256],
            "rows": [24, 32, 64, 128],
            "macros": [1, 2, 4, 8, 16],
            "scheduler": ["lut-aware", "round-robin"],
            "workload": ["ecdsa-sign", "ntt", "msm", "mixed"],
        },
    )
