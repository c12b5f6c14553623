"""Point evaluation, sweep execution, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.dse import (
    DesignPoint,
    SweepSpec,
    evaluate_design_point,
    pareto_frontier,
    run_dse,
)
from repro.experiments import get_experiment

SMALL_SPEC = SweepSpec(
    name="small",
    fixed={"workload_ops": 32},
    axes={
        "bitwidth": [64, 256],
        "macros": [1, 4],
        "scheduler": ["lut-aware", "round-robin"],
    },
)

#: (bits, cold pJ, warm pJ) of one multiplication on the cycle and
#: analytical tiers (``tests/modsram/test_fidelity.py::TestCostModelEnergy``).
TIER_ENERGY = (
    (64, 195.69, 193.11),
    (128, 459.60, 454.44),
    (256, 1198.79, 1188.47),
)


class TestEvaluateDesignPoint:
    def test_paper_point_metrics(self):
        result = evaluate_design_point(DesignPoint(workload_ops=16))
        assert result.jobs == 16
        assert result.cycles_per_op == 809  # 6 + 33 + 767 + 3
        assert result.throughput_mops > 0
        assert result.energy_pj_per_op > 0
        assert result.area_mm2 == pytest.approx(result.macro_area_mm2)
        assert not result.verified  # analytical fidelity runs no probe

    def test_banking_reduces_the_cold_op_cycles(self):
        flat = evaluate_design_point(DesignPoint(workload_ops=8))
        banked = evaluate_design_point(DesignPoint(banks=4, workload_ops=8))
        assert banked.cycles_per_op < flat.cycles_per_op

    def test_more_macros_buy_throughput_with_area(self):
        one = evaluate_design_point(DesignPoint(workload_ops=64))
        four = evaluate_design_point(DesignPoint(macros=4, workload_ops=64))
        assert four.throughput_mops > one.throughput_mops
        assert four.area_mm2 == pytest.approx(4 * one.area_mm2)

    def test_round_robin_never_beats_lut_aware_reuse(self):
        aware = evaluate_design_point(
            DesignPoint(macros=4, workload="ntt", workload_ops=64)
        )
        blind = evaluate_design_point(
            DesignPoint(
                macros=4, workload="ntt", workload_ops=64,
                scheduler="round-robin",
            )
        )
        assert blind.lut_reuse_rate <= aware.lut_reuse_rate

    @pytest.mark.parametrize("fidelity", ("cycle", "hdl"))
    def test_executable_probes_verify_the_closed_form(self, fidelity):
        result = evaluate_design_point(
            DesignPoint(bitwidth=32, rows=32, workload_ops=4, fidelity=fidelity)
        )
        assert result.verified

    @pytest.mark.parametrize(
        "workload", ("ecdsa-sign", "scalar-mult", "ntt", "msm", "mixed")
    )
    def test_every_workload_reaches_the_requested_ops(self, workload):
        result = evaluate_design_point(
            DesignPoint(workload=workload, workload_ops=24)
        )
        assert result.jobs == 24

    @pytest.mark.parametrize("bits,cold_pj,warm_pj", TIER_ENERGY)
    def test_energy_per_op_weighs_the_tiers_cold_and_warm_energy(
        self, bits, cold_pj, warm_pj
    ):
        result = get_experiment("dse-point").execute({"bitwidth": bits}).result
        reuse = result.lut_reuse_rate
        assert 0.0 < reuse < 1.0
        assert result.energy_pj_per_op == pytest.approx(
            reuse * warm_pj + (1.0 - reuse) * cold_pj, abs=0.01
        )

    def test_the_probed_paper_point_prices_the_near_memory_registers(self):
        result = get_experiment("dse-point").execute({"fidelity": "cycle"}).result
        assert result.verified
        assert result.energy_pj_per_op == pytest.approx(1198.02, abs=0.005)

class TestRunDse:
    def test_every_point_is_evaluated_in_expansion_order(self):
        result = run_dse(SMALL_SPEC)
        assert len(result.points) == SMALL_SPEC.point_count == 8
        assert result.frontier  # non-empty by acceptance criterion
        assert result.points == [
            evaluate_design_point(point) for point in SMALL_SPEC.expand()
        ]

    def test_frontier_accounting_is_consistent(self):
        result = run_dse(SMALL_SPEC)
        assert result.dominated <= len(result.points) - len(result.frontier)
        frontier_indices = {m.index for m in result.frontier}
        assert all(0 <= i < len(result.points) for i in frontier_indices)

    def test_quick_mode_shrinks_the_sweep(self):
        result = run_dse(SMALL_SPEC.quick())
        assert len(result.points) == 8  # 2 values were kept per axis
        assert result.spec["name"] == "small-quick"

    @pytest.mark.parametrize("per_axis", (0, -1))
    def test_a_sample_below_one_value_per_axis_is_rejected(self, per_axis):
        with pytest.raises(ConfigurationError, match="at least 1 value per axis"):
            SMALL_SPEC.quick(per_axis=per_axis)


class TestCli:
    def test_dse_run_quick_json_smoke(self, capsys):
        code = main(["dse", "run", "--quick", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert set(payload) == {
            "spec", "points", "frontier", "dominated", "elapsed_seconds",
            "points_per_second",
        }
        assert payload["frontier"]
        assert len(payload["points"]) == 32

    def test_dse_run_json_carries_the_frontier_of_its_points(self, capsys):
        """A saved ``dse run --json`` needs no re-run to re-read its frontier."""
        assert main(["dse", "run", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        frontier = pareto_frontier(payload["points"])
        assert payload["frontier"] == [
            {"index": m.index, "objectives": m.objectives, "dominates": m.dominates}
            for m in frontier
        ]
        assert payload["dominated"] == len(payload["points"]) - len(frontier)

    @pytest.mark.parametrize("sample", ("0", "-1"))
    def test_dse_run_rejects_a_sample_below_one(self, capsys, sample):
        assert main(["dse", "run", "--sample", sample]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error:") and "at least 1 value per axis" in out

    @pytest.mark.parametrize("sample", ("0", "-1"))
    def test_dse_experiment_rejects_a_sample_below_one(self, capsys, sample):
        code = main(["experiment", "run", "dse", "--set", f"sample={sample}"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("error:") and "at least 1 value per axis" in out

    def test_quick_does_not_shrink_a_sample_again(self, capsys):
        assert main(["dse", "run", "--sample", "3", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert len(payload["points"]) == 162
        assert payload["spec"]["name"] == "modsram-default-quick"

    def test_dse_run_quick_is_the_dse_experiments_quick_mode(self, capsys):
        assert main(["dse", "run", "--quick", "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)["payload"]
        assert main(["experiment", "run", "dse", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert direct["spec"] == payload["spec"]
        assert direct["points"] == payload["points"]
        assert {point["workload_ops"] for point in direct["points"]} == {128}

    def test_dse_run_with_a_spec_file_and_sample(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SMALL_SPEC.to_dict()))
        code = main(
            [
                "dse", "run", str(spec_path), "--sample", "1",
                "--workload-ops", "16", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert len(payload["points"]) == 1
        assert payload["points"][0]["workload_ops"] == 16

    def test_dse_run_text_mentions_the_frontier(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SMALL_SPEC.to_dict()))
        code = main(["dse", "run", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "8 points" in out

    def test_dse_run_rejects_a_bad_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"axes": {"voltage": [1]}}))
        code = main(["dse", "run", str(spec_path)])
        assert code != 0
        assert "voltage" in capsys.readouterr().out
