"""Every exhibit checks its tier runs, and a wrong tier fails loudly.

Each test patches one simulation tier in-process so its ``multiply``
returns a wrong product or a cycle report one main-loop cycle off, or its
``energy_report`` reads 1 pJ high, then runs the exhibits that measure on
that tier.  The checks raise
:class:`~repro.errors.TierMismatchError` (a :class:`~repro.errors.ReproError`)
instead of asserting, so they also hold under ``python -O``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.analysis.hdl_cosim import reproduce_hdl_cosim
from repro.cli import main
from repro.dse.evaluate import evaluate_design_point
from repro.dse.spec import DesignPoint
from repro.errors import ConfigurationError, TierMismatchError
from repro.experiments import get_experiment
from repro.hdl.eventsim import HdlModSRAM
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.analytical import AnalyticalModSRAM

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: The measured exhibits, at sizes cheap enough for tier-1.
MEASURED_EXHIBITS = (
    ("figure1", {"bitwidths": [8, 16]}),
    ("table3", {}),
    ("headline", {}),
    ("design-point", {"bitwidth": 32}),
)


def wrong_product(result):
    return dataclasses.replace(result, product=result.product + 1)


def one_cycle_late(result):
    report = dataclasses.replace(
        result.report, iteration_cycles=result.report.iteration_cycles + 1
    )
    return dataclasses.replace(result, report=report)


def one_pj_high(monkeypatch):
    """Make the cycle tier's ``energy_report`` read 1 pJ more than it charged."""
    original = ModSRAMAccelerator.energy_report

    def energy_report(self):
        report = original(self)
        return dataclasses.replace(report, near_memory_pj=report.near_memory_pj + 1.0)

    monkeypatch.setattr(ModSRAMAccelerator, "energy_report", energy_report)


def corrupt(monkeypatch, tier, change, when=lambda simulator: True):
    """Make ``tier.multiply`` pass its results through ``change``."""
    original = tier.multiply

    def multiply(self, a, b, modulus):
        result = original(self, a, b, modulus)
        return change(result) if when(self) else result

    monkeypatch.setattr(tier, "multiply", multiply)


def run_exhibit(name, params):
    return get_experiment(name).execute(params)


class TestTable3Width:
    @pytest.mark.parametrize("quick", [False, True])
    def test_table3_measures_at_its_own_bitwidth(self, capsys, quick):
        argv = ["experiment", "run", "table3", "--set", "bitwidth=128"]
        assert main(argv + (["--quick"] if quick else [])) == 0
        output = capsys.readouterr().out
        assert "cycle reduction vs BP-NTT (as scaled): 53.6%" in output
        assert "ModSRAM cycles measured by the cycle-accurate model: 383" in output


class TestWrongCycleTier:
    @pytest.mark.parametrize("change", [wrong_product, one_cycle_late])
    @pytest.mark.parametrize("name,params", MEASURED_EXHIBITS)
    def test_measured_exhibits_raise(self, monkeypatch, name, params, change):
        corrupt(monkeypatch, ModSRAMAccelerator, change)
        with pytest.raises(TierMismatchError, match="cycle tier"):
            run_exhibit(name, params)

    @pytest.mark.parametrize("name,params", MEASURED_EXHIBITS)
    def test_measured_exhibits_raise_on_a_wrong_energy(
        self, monkeypatch, name, params
    ):
        one_pj_high(monkeypatch)
        with pytest.raises(TierMismatchError, match="cycle tier .* cycle energy"):
            run_exhibit(name, params)

    @pytest.mark.parametrize("tier,fidelity", [
        (ModSRAMAccelerator, "cycle"),
        (HdlModSRAM, "hdl"),
    ])
    def test_the_dse_probe_raises(self, monkeypatch, tier, fidelity):
        corrupt(monkeypatch, tier, wrong_product)
        point = DesignPoint(bitwidth=32, rows=32, fidelity=fidelity, workload_ops=16)
        with pytest.raises(TierMismatchError, match=f"{fidelity} tier at 32 bits"):
            evaluate_design_point(point)

    def test_checks_hold_under_optimised_python(self):
        script = "\n".join([
            "import dataclasses",
            "from repro.analysis.design_point import reproduce_design_point",
            "from repro.errors import TierMismatchError",
            "from repro.modsram.accelerator import ModSRAMAccelerator",
            "original = ModSRAMAccelerator.multiply",
            "def multiply(self, a, b, modulus):",
            "    result = original(self, a, b, modulus)",
            "    return dataclasses.replace(result, product=result.product + 1)",
            "ModSRAMAccelerator.multiply = multiply",
            "try:",
            "    reproduce_design_point(16)",
            "except TierMismatchError as error:",
            "    print('raised:', error)",
        ])
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=environment,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert "raised: cycle tier at 16 bits failed cycle product" in completed.stdout


class TestHdlCosimChecks:
    def test_a_wrong_analytical_product_is_a_disagreement(self, monkeypatch):
        # The paper point is checked against the closed form and would
        # raise, so only the swept widths get the wrong closed form.
        corrupt(
            monkeypatch, AnalyticalModSRAM, wrong_product,
            when=lambda simulator: simulator.config.bitwidth == 16,
        )
        result = reproduce_hdl_cosim(bitwidths=(16,), cases=2)
        assert not result.rows[0].products_match
        assert result.rows[0].cycles_match
        assert "verdict: DISAGREE" in result.render()

    def test_a_wrong_energy_report_is_a_disagreement(self, monkeypatch):
        one_pj_high(monkeypatch)
        result = reproduce_hdl_cosim(bitwidths=(16,), cases=2)
        assert result.rows[0].products_match and result.rows[0].cycles_match
        assert not result.all_match
        assert "verdict: DISAGREE" in result.render()

    def test_an_empty_request_is_rejected(self):
        with pytest.raises(ConfigurationError, match="bitwidths"):
            reproduce_hdl_cosim(bitwidths=(), cases=2)

    @pytest.mark.parametrize("cases", (0, -2))
    def test_a_case_count_below_one_is_rejected(self, cases):
        with pytest.raises(ConfigurationError, match="cases"):
            reproduce_hdl_cosim(bitwidths=(16,), cases=cases)

    def test_a_wrong_paper_point_rtl_product_raises(self, monkeypatch):
        corrupt(
            monkeypatch, HdlModSRAM, wrong_product,
            when=lambda simulator: simulator.config.bitwidth == 256,
        )
        with pytest.raises(TierMismatchError, match="hdl tier at 256 bits"):
            reproduce_hdl_cosim(bitwidths=(16,), cases=2)
