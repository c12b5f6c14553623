"""Sweep-spec parsing: validation, determinism, and seeded fuzzing.

Satellite 1 of ISSUE 10: malformed, ragged, or out-of-range specs must
raise :class:`ConfigurationError` naming the offending key, and spec →
expanded grid → spec round trips must be deterministic and order-stable
across runs.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.dse import (
    DesignPoint,
    SweepSpec,
    default_sweep_spec,
    load_spec,
    parse_spec,
)
from repro.errors import ConfigurationError

#: A small but non-trivial spec used as the fuzz/round-trip baseline.
VALID_SPEC = {
    "name": "unit",
    "description": "unit-test sweep",
    "fixed": {"technology_nm": 65, "workload_ops": 64},
    "axes": {
        "bitwidth": [32, 64],
        "rows": [24, 64],
        "macros": [1, 4],
        "workload": ["ecdsa-sign", "ntt"],
    },
}


class TestParsing:
    def test_json_text_parses(self):
        spec = parse_spec(json.dumps(VALID_SPEC))
        assert spec.name == "unit"
        assert spec.point_count == 16

    def test_yaml_text_parses_when_pyyaml_is_available(self):
        yaml = pytest.importorskip("yaml")
        spec = parse_spec(yaml.safe_dump(VALID_SPEC))
        assert spec.to_dict() == SweepSpec.from_dict(VALID_SPEC).to_dict()

    def test_garbage_text_names_the_source(self):
        with pytest.raises(ConfigurationError, match="bad.json"):
            parse_spec("{not json: [", source="bad.json")

    def test_load_spec_round_trips_through_a_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(VALID_SPEC))
        assert load_spec(str(path)).to_dict() == SweepSpec.from_dict(VALID_SPEC).to_dict()

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(str(tmp_path / "absent.json"))

    def test_non_mapping_document_is_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            parse_spec(json.dumps([1, 2, 3]))


class TestValidationNamesTheKey:
    @pytest.mark.parametrize(
        "mutate,key",
        (
            (lambda d: d.__setitem__("unknown_section", {}), "unknown_section"),
            (lambda d: d["fixed"].__setitem__("voltage", 5), "voltage"),
            (lambda d: d["axes"].__setitem__("voltage", [1]), "voltage"),
            (lambda d: d["axes"].__setitem__("technology_nm", [45]), "technology_nm"),
            (lambda d: d["axes"].__setitem__("banks", 4), "banks"),
            (lambda d: d["axes"].__setitem__("banks", []), "banks"),
            (lambda d: d["axes"].__setitem__("banks", [1, [2, 4]]), "banks"),
            (lambda d: d["axes"].__setitem__("rows", [24, "64"]), "rows"),
            (lambda d: d["fixed"].__setitem__("radix", 5), "radix"),
            (lambda d: d["fixed"].__setitem__("rows", 8), "rows"),
            (lambda d: d["fixed"].__setitem__("rows", True), "rows"),
            (lambda d: d["fixed"].__setitem__("macros", 0), "macros"),
            (lambda d: d["fixed"].__setitem__("scheduler", "greedy"), "scheduler"),
            (lambda d: d["fixed"].__setitem__("workload", "mining"), "workload"),
            (lambda d: d["fixed"].__setitem__("fidelity", "exact"), "fidelity"),
            (lambda d: d.__setitem__("name", ""), "name"),
        ),
    )
    def test_bad_specs_name_the_offending_key(self, mutate, key):
        document = json.loads(json.dumps(VALID_SPEC))
        mutate(document)
        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec.from_dict(document).expand()
        assert key in str(excinfo.value)

    def test_cross_product_errors_name_the_key(self):
        spec = SweepSpec(axes={"bitwidth": [64, 256], "columns": [64]})
        with pytest.raises(ConfigurationError, match="'columns'"):
            spec.expand()

    def test_fidelity_needs_an_executable_geometry(self):
        with pytest.raises(ConfigurationError, match="'fidelity'"):
            DesignPoint(radix=8, fidelity="cycle")

    @pytest.mark.parametrize("overflow_rows", (4, 16))
    @pytest.mark.parametrize("fidelity", ("cycle", "hdl"))
    def test_fidelity_needs_the_paper_overflow_lut(self, fidelity, overflow_rows):
        """The probe races tiers that fold through exactly 8 overflow rows."""
        with pytest.raises(
            ConfigurationError, match="'fidelity'.*'overflow_rows'"
        ):
            DesignPoint(
                bitwidth=16, rows=64, fidelity=fidelity,
                overflow_rows=overflow_rows,
            )
        assert DesignPoint(bitwidth=16, rows=64, overflow_rows=overflow_rows)

    def test_expansion_cap_is_enforced(self):
        spec = SweepSpec(axes={"workload_ops": list(range(1, 102))})
        with pytest.raises(ConfigurationError, match="101 points"):
            spec.expand(max_points=100)


class TestDeterminism:
    def test_expansion_is_order_stable(self):
        spec = SweepSpec.from_dict(VALID_SPEC)
        first = [p.to_params() for p in spec.expand()]
        second = [p.to_params() for p in spec.expand()]
        assert first == second
        # Axes iterate in sorted key order, values in spec order.
        assert [p["bitwidth"] for p in first[:8]] == [32] * 8
        assert [p["workload"] for p in first[:2]] == ["ecdsa-sign", "ntt"]

    def test_spec_dict_round_trip_preserves_the_grid(self):
        spec = default_sweep_spec()
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.to_dict() == spec.to_dict()
        assert [p.to_params() for p in rebuilt.expand()] == [
            p.to_params() for p in spec.expand()
        ]

    def test_point_params_round_trip(self):
        for point in SweepSpec.from_dict(VALID_SPEC).expand():
            assert DesignPoint.from_params(point.to_params()) == point

    def test_quick_shrinks_every_axis_and_tags_the_name(self):
        quick = default_sweep_spec().quick(per_axis=2)
        assert quick.name.endswith("-quick")
        assert all(len(v) <= 2 for v in quick.axes.values())
        assert quick.fixed["fidelity"] == "analytical"
        assert quick.point_count == 32

    def test_with_fixed_drops_matching_axes(self):
        spec = SweepSpec.from_dict(VALID_SPEC).with_fixed(bitwidth=128)
        assert "bitwidth" not in spec.axes
        assert spec.fixed["bitwidth"] == 128
        assert all(p.bitwidth == 128 for p in spec.expand())


class TestSeededFuzz:
    """Random spec mutations: every corruption must fail loudly and
    name its key; every surviving spec must expand deterministically."""

    ROUNDS = 200

    def _corrupt(self, rng, document):
        """Apply one random corruption; return the key the error must name."""
        field_pool = (
            "bitwidth", "rows", "columns", "banks", "radix", "macros",
            "workload_ops", "technology_nm", "overflow_rows",
        )
        choice = rng.randrange(6)
        if choice == 0:  # out-of-range integer
            key = rng.choice(field_pool)
            document["fixed"][key] = rng.choice((-1, 0, 10**9))
            return key
        if choice == 1:  # wrong type in fixed
            key = rng.choice(field_pool)
            # (None is excluded: it is a legal value for ``columns``.)
            document["fixed"][key] = rng.choice((True, "wide", 3.5))
            return key
        if choice == 2:  # ragged / nested axis
            key = rng.choice(field_pool)
            document["axes"][key] = rng.choice(
                ([], [[1]], [1, "two"], "scalar", {"a": 1})
            )
            document["fixed"].pop(key, None)
            return key
        if choice == 3:  # unknown parameter
            key = f"bogus_{rng.randrange(100)}"
            section = rng.choice(("fixed", "axes"))
            document[section][key] = [1] if section == "axes" else 1
            return key
        if choice == 4:  # fixed/axes collision
            key = rng.choice(list(document["axes"]))
            document["fixed"][key] = document["axes"][key][0]
            return key
        key = rng.choice(("scheduler", "workload", "fidelity"))  # bad choice
        document["fixed"][key] = "nonsense"
        return key

    def test_corrupted_specs_always_name_the_offending_key(self):
        rng = random.Random(0xF022)
        for round_index in range(self.ROUNDS):
            document = json.loads(json.dumps(VALID_SPEC))
            key = self._corrupt(rng, document)
            with pytest.raises(ConfigurationError) as excinfo:
                SweepSpec.from_dict(document).expand()
            assert key in str(excinfo.value), f"round {round_index}"

    def test_random_valid_specs_expand_deterministically(self):
        rng = random.Random(0xF055)
        axis_pool = {
            "bitwidth": [16, 32, 64, 128, 256],
            "rows": [24, 32, 64, 128],
            "macros": [1, 2, 4, 8],
            "banks": [1, 2, 4],
            "scheduler": ["lut-aware", "round-robin"],
            "workload": ["ecdsa-sign", "scalar-mult", "ntt", "msm", "mixed"],
            "workload_ops": [16, 64, 256],
        }
        for _ in range(25):
            axes = {
                key: rng.sample(values, rng.randrange(1, len(values) + 1))
                for key, values in axis_pool.items()
                if rng.random() < 0.6
            }
            spec = SweepSpec(name="fuzz", axes=axes)
            grid = [p.to_params() for p in spec.expand()]
            assert len(grid) == spec.point_count
            assert grid == [p.to_params() for p in spec.expand()]
            rebuilt = SweepSpec.from_dict(spec.to_dict())
            assert [p.to_params() for p in rebuilt.expand()] == grid
