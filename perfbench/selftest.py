"""The benchmark's own tests: every broken invariant raises ``error_rate``,
and the output keeps the contract ``BENCHMARK.json`` declares.

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps these out of the repository's tier-1 collection.)
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import engine_bulk  # noqa: E402
import harness  # noqa: E402
import serving  # noqa: E402
import sim_paper  # noqa: E402
from harness import Calibrator, Ledger  # noqa: E402


# ---------------------------------------------------------------------- #
# a wrong product
# ---------------------------------------------------------------------- #
class _CorruptEngine:
    """An engine whose batches come back with their first product off by one."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def multiply_batch(self, pairs, modulus=None):
        result = self._engine.multiply_batch(pairs, modulus)
        values = ((result.values[0] + 1) % result.modulus,) + result.values[1:]
        return dataclasses.replace(result, values=values)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture(scope="module")
def bulk_inputs():
    return engine_bulk.make_inputs(7)


def test_engine_bulk_counts_a_wrong_product(bulk_inputs):
    ledger = Ledger()
    system = engine_bulk._setup(bulk_inputs, ledger)
    assert ledger.failed == 0
    system.engine = _CorruptEngine(system.engine)
    engine_bulk._measure(system, bulk_inputs, 0.05, False, ledger, Calibrator())
    assert ledger.failures["product"] >= 1
    assert ledger.error_rate > 0


def test_engine_bulk_is_clean_on_the_real_engine(bulk_inputs):
    ledger = Ledger()
    system = engine_bulk._setup(bulk_inputs, ledger)
    result = engine_bulk._measure(system, bulk_inputs, 0.3, True, ledger, Calibrator())
    assert ledger.failed == 0 and ledger.attempted > 0
    assert result.layers["floor.ns_per_pair"] > 0
    assert result.layers["engine.floor_ratio"] > 0


# ---------------------------------------------------------------------- #
# a cycle report that disagrees across tiers
# ---------------------------------------------------------------------- #
class _SkewedSimulator:
    """A tier that reports one main-loop cycle fewer than it ran."""

    def __init__(self, simulator) -> None:
        self._simulator = simulator

    def multiply(self, a, b, modulus):
        result = self._simulator.multiply(a, b, modulus)
        report = dataclasses.replace(
            result.report, iteration_cycles=result.report.iteration_cycles - 1
        )
        return dataclasses.replace(result, report=report)


@pytest.fixture(scope="module")
def paper_system():
    inputs = sim_paper.make_inputs(3)
    ledger = Ledger()
    system = sim_paper._setup(inputs, ledger)
    assert ledger.failed == 0
    assert system.main_loop_cycles == sim_paper.PAPER_MAIN_LOOP_CYCLES
    return inputs, system


def test_sim_paper_counts_a_disagreeing_cycle_report(paper_system):
    inputs, system = paper_system
    ledger = Ledger()
    skewed = dataclasses.replace(system, hdl=_SkewedSimulator(system.hdl))
    p, a, b = inputs.pairs[1]
    sim_paper._cosimulate(skewed, ledger, p, a, b)
    assert ledger.failures == {"cycle_report": 1}
    assert ledger.error_rate == 1.0


def test_sim_paper_counts_a_wrong_simulated_product(paper_system):
    inputs, system = paper_system

    class WrongProduct:
        def multiply(self, a, b, modulus):
            result = system.cycle.multiply(a, b, modulus)
            return dataclasses.replace(result, product=result.product ^ 1)

    ledger = Ledger()
    p, a, b = inputs.pairs[2]
    sim_paper._cosimulate(
        dataclasses.replace(system, cycle=WrongProduct()), ledger, p, a, b
    )
    assert ledger.failures == {"product": 1}


# ---------------------------------------------------------------------- #
# serving: a lost request, a wrong product, counters that disagree
# ---------------------------------------------------------------------- #
class _FakeTarget:
    """An in-process stand-in for a serving stack with scripted faults."""

    scale_latency = True

    def __init__(self, hang_every=0, corrupt_every=0, undercount=0) -> None:
        self.hang_every = hang_every
        self.corrupt_every = corrupt_every
        self.undercount = undercount
        self.calls = 0
        self.replies = 0
        self.pairs = 0

    async def send(self, request):
        self.calls += 1
        if self.hang_every and self.calls % self.hang_every == 0:
            await asyncio.Event().wait()
        await asyncio.sleep(0)
        self.replies += 1
        self.pairs += len(request.pairs)
        values = request.expected
        if self.corrupt_every and self.calls % self.corrupt_every == 0:
            values = (values[0] ^ 1,) + values[1:]
        return SimpleNamespace(values=values, latency_ms=0.2, queue_ms=0.1)

    def server_counters(self):
        return {
            "completed": self.replies - self.undercount, "pending": 0,
            "executing": 0, "rejected": 0, "deadline_misses": 0,
            "batches": self.replies, "batched_pairs": self.pairs,
            "engine_multiplications": self.pairs,
        }

    def router(self):
        return None

    def executor(self):
        return {}


def _serve(target, monkeypatch) -> Ledger:
    monkeypatch.setattr(serving, "REPLY_TIMEOUT_S", 0.2)
    monkeypatch.setattr(serving, "QUIESCE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(serving, "WINDOW_S", 0.1)
    inputs = serving.make_inputs(5, 0.4)
    ledger = Ledger()
    tally = serving.Tally(ledger)
    asyncio.run(serving._measure(
        target, inputs, 0.4, tally, ledger, False, False, Calibrator()
    ))
    return ledger


def test_serving_is_clean_without_faults(monkeypatch):
    ledger = _serve(_FakeTarget(), monkeypatch)
    assert ledger.failed == 0 and ledger.attempted > 0


def test_serving_counts_a_lost_request(monkeypatch):
    ledger = _serve(_FakeTarget(hang_every=7), monkeypatch)
    assert ledger.failures["lost"] >= 1
    assert ledger.error_rate > 0


def test_serving_counts_a_wrong_product(monkeypatch):
    ledger = _serve(_FakeTarget(corrupt_every=5), monkeypatch)
    assert ledger.failures["product"] >= 1


def test_serving_counts_server_ledger_disagreement(monkeypatch):
    ledger = _serve(_FakeTarget(undercount=1), monkeypatch)
    assert ledger.failures["server_ledger"] >= 1


# ---------------------------------------------------------------------- #
# the output contract
# ---------------------------------------------------------------------- #
def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_tables_match_benchmark_json():
    bench = _declared()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == {
        "serve-pool", "fleet-rpc", "engine-bulk", "sim-paper"
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    bench = _declared()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "engine-bulk",
         "--seed", "2", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    record = json.loads(lines[-2])["record"]
    for key in ("seed", "git_sha", "python", "nproc", "backend", "samples"):
        assert key in record
    if trace:
        assert set(record["tracing_overhead"]) <= set(record["untraced"])


#: Runs the benchmark as a child subreaper, so every descendant the run
#: leaves behind, even one that ends a moment after it, becomes this
#: script's child; prints the run's exit code and how many there were
#: (one still running counts once).
_ORPHAN_PROBE = """
import ctypes, os, subprocess, sys, time
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
time.sleep(0.5)
orphans = 0
while True:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break
    orphans += 1
    if pid == 0:
        break
print(code, orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("workload", ["serve-pool", "fleet-rpc"])
def test_run_leaves_no_process_behind(workload):
    completed = subprocess.run(
        [sys.executable, "-c", _ORPHAN_PROBE, sys.executable,
         os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.stdout.split() == ["0", "0"], completed.stderr


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
