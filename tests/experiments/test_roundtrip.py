"""Golden JSON round-trip tests for every experiment's structured result.

For each registered experiment: run it, serialise the result to JSON, load
it back, and require the same parameters and payload.  ``--json`` prints
that serialisation, so a value JSON cannot carry would change the output.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import available_experiments, get_experiment

#: (experiment, parameter overrides, quick) — cheap enough for tier-1.
ROUND_TRIP_CASES = (
    ("table1", {}, False),
    ("table1", {"multiplicand": 12345, "modulus": 65521}, False),
    ("figure1", {}, True),
    ("figure1", {"bitwidths": [8, 16, 32]}, False),
    ("figure5", {}, False),
    ("figure5", {"technology_nm": 45}, False),
    ("figure6", {}, False),
    ("figure6", {"bitwidth": 128}, False),
    ("figure7", {}, False),
    ("table3", {}, True),
    ("table3", {"bitwidth": 128}, False),
    ("headline", {}, True),
    ("design-point", {"bitwidth": 32}, False),
    ("design-point", {}, True),
    ("chip-scaling", {}, True),
    ("chip-scaling", {"workload": "ntt", "vector_size": 512, "macro_counts": [1, 4]}, False),
    ("serving-throughput", {"backend": "montgomery"}, True),
    ("hdl-cosim", {"bitwidths": [16], "cases": 2}, True),
    ("dse-point", {}, True),
    ("dse-point", {"banks": 4, "radix": 8, "scheduler": "round-robin",
                   "workload": "ntt", "workload_ops": 64}, False),
    ("dse-point", {"bitwidth": 32, "rows": 32, "fidelity": "cycle",
                   "workload_ops": 32}, False),
    ("dse", {"sample": 1, "workload_ops": 64}, False),
)


class TestGoldenRoundTrips:
    @pytest.mark.parametrize("name,params,quick", ROUND_TRIP_CASES)
    def test_experiment_result_json_round_trip(self, name, params, quick):
        result = get_experiment(name).execute(params, quick=quick)
        assert json.loads(result.to_json()) == result.to_dict()

    def test_every_registered_experiment_is_covered(self):
        covered = {name for name, _, _ in ROUND_TRIP_CASES}
        assert covered == set(available_experiments())
