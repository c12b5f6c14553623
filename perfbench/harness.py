"""Shared pieces of the benchmark: the failure ledger, statistics,
process accounting and the self-describing run record.

Nothing here imports the program; the workload modules do.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Set-ups per run.  ``setup_s`` is their median, so one slow spawn does
#: not move the figure; the last set-up's system is the one measured.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX = 25

#: The end-to-end metrics every workload reports (with ``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "saturated_rps": "req/s",
    "batch_pairs_per_s": "pairs/s",
    "call_mults_per_s": "mults/s",
    "sim_mults_per_s": "mults/s",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics every workload reports (with ``--trace 1``).  A
#: layer that a workload does not reach reads 0.  The first two belong
#: with the end-to-end figures but cannot hold a bound (see README.md).
PER_LAYER_UNITS = {
    "error_rate": "fraction",
    "latency_p95_ms": "ms",
    "driver.lag_p99_ms": "ms",
    "driver.latency_p99_ms": "ms",
    "driver.latency_max_ms": "ms",
    "driver.samples": "count",
    "driver.call_ms_mean": "ms",
    "cluster.client.wire_ms_p50": "ms",
    "cluster.client.wire_ms_mean": "ms",
    "cluster.protocol.encode_us_per_request": "us",
    "cluster.protocol.decode_us_per_request": "us",
    "cluster.protocol.bytes_per_request": "bytes",
    "cluster.router.hop_ms_p50": "ms",
    "cluster.router.hop_ms_mean": "ms",
    "cluster.router.frames_per_message": "ratio",
    "cluster.router.node_imbalance": "ratio",
    "cluster.router.replica_ratio": "fraction",
    "cluster.router.redispatches": "count",
    "cluster.router.inflight_at_quiesce": "count",
    "service.server.queue_ms_p50": "ms",
    "service.server.queue_ms_mean": "ms",
    "service.server.exec_ms_p50": "ms",
    "service.server.exec_ms_mean": "ms",
    "service.server.client_overhead_ms_mean": "ms",
    "service.server.mean_batch_pairs": "pairs",
    "service.server.batches_per_request": "ratio",
    "service.server.rejected": "count",
    "service.server.deadline_misses": "count",
    "service.pool.exec_ms_p50": "ms",
    "service.pool.ipc_ms_p50": "ms",
    "service.pool.spill_ratio": "fraction",
    "service.pool.utilization": "fraction",
    "service.pool.restarts": "count",
    "engine.batch_ns_per_pair": "ns",
    "floor.ns_per_pair": "ns",
    "engine.floor_ratio": "ratio",
    "engine.cache_hit_ratio": "fraction",
    "engine.backend.ns_per_call": "ns",
    "workloads.build_ms": "ms",
    "workloads.exec_ns_per_node": "ns",
    "ecc.sign_ms": "ms",
    "ecc.mults_per_sign": "mults",
    "zkp.ntt_ms": "ms",
    "zkp.mults_per_ntt": "mults",
    "modsram.cycle_ms_per_mult": "ms",
    "modsram.analytical_ms_per_mult": "ms",
    "hdl.ms_per_mult": "ms",
    "hdl.events_per_s": "1/s",
    "hdl.elaborate_ms": "ms",
    "modsram.main_loop_cycles": "cycles",
    "modsram.chip.makespan_cycles": "cycles",
    "modsram.chip.utilization": "fraction",
    "modsram.chip.lut_reuse_rate": "fraction",
    "process.cpu_s": "s",
    "process.child_peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
}


class Ledger:
    """Every operation's outcome plus every run-level invariant checked.

    An operation counts once: it either completed correctly or failed,
    and a failure is filed under the invariant it broke (``product``,
    ``cycle_report``, ``rejected``, ``lost``, ...).  Run-level checks
    (work conservation, quiesce state, counter agreement) each count as
    one failure when they break, so ``error_rate`` can never read 0
    while any invariant is broken.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.completed = 0
        self.failures: Counter = Counter()
        self.details: List[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def ok(self, count: int = 1) -> None:
        """``count`` operations completed with verified outputs."""
        self.attempted += count
        self.completed += count

    def fail(self, invariant: str, detail: str = "", count: int = 1) -> None:
        """``count`` operations failed, breaking ``invariant``."""
        self.attempted += count
        self.failures[invariant] += count
        self._note(invariant, detail)

    def operation(self, broken: Sequence[str], detail: str = "") -> None:
        """One operation whose checks broke ``broken`` (empty = correct)."""
        if broken:
            self.fail(broken[0], detail)
        else:
            self.ok()

    def check(self, holds: bool, invariant: str, detail: str = "") -> bool:
        """A run-level invariant; a broken one counts as one failure."""
        if not holds:
            self.failures[invariant] += 1
            self._note(invariant, detail)
        return holds

    def _note(self, invariant: str, detail: str) -> None:
        if len(self.details) < 10:
            self.details.append(f"{invariant}: {detail}" if detail else invariant)

    def summary(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "failures": dict(sorted(self.failures.items())),
            "details": list(self.details),
        }


def check_products(ledger: Ledger, got: Sequence[int], expected: Sequence[int]) -> None:
    """One operation per expected product; a wrong or missing one fails."""
    wrong = sum(1 for x, y in zip(got, expected) if x != y)
    wrong += abs(len(got) - len(expected))
    if wrong:
        ledger.fail("product", f"{wrong} wrong products", wrong)
    ledger.ok(len(expected) - min(wrong, len(expected)))


def check_tree(ledger: Ledger, graph, values: Sequence[int], p: int) -> None:
    """Every graph node's product against ``a * b % p`` of its operands."""
    expected = []
    for node in graph.nodes:
        a = values[node.a.node] if hasattr(node.a, "node") else node.a % p
        b = values[node.b.node] if hasattr(node.b, "node") else node.b % p
        expected.append(a * b % p)
    check_products(ledger, list(values), expected)


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    data = sorted(values)
    if not data:
        return 0.0
    position = fraction * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_p95(samples: Sequence[float], chunks: int = 5) -> float:
    """The p95 of each of ``chunks`` consecutive slices, median across them.

    The host this runs on slows down by a third for seconds at a time; a
    plain p95 lands inside such a stretch or not from run to run, while
    the median slice's p95 moves only when most of the run is slow.
    Short samples fall back to the plain p95.
    """
    size = len(samples) // chunks
    if size < 8:
        return percentile(samples, 0.95)
    return statistics.median(
        percentile(samples[index * size:(index + 1) * size], 0.95)
        for index in range(chunks)
    )


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: What :func:`_reference` takes on the host the figures are scaled to.
REFERENCE_S = 0.0035


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _reference() -> int:
    """A fixed pure-Python computation in three parts: chained 256-bit
    modular products, a branchy dict-and-integer interpreter loop, and
    small-object churn.

    Of the references tried (each part alone, strided list reads, random
    reads over 32 MB), their sum's slowdowns tracked those of the
    simulators and the engine most closely, cutting the spread of
    10-second medians from about 30% to about 10%.
    """
    acc = 1
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    m = (1 << 255) - 19
    for _ in range(3000):
        acc = acc * x % m
    state, count, table = 1, 0, {}
    for index in range(6000):
        state = (state * 31 + index) & 0xFFFF
        table[state & 255] = index
        if state & 1:
            count += 1
        else:
            count -= table.get(index & 255, 0) & 3
    pairs = [_Pair(index, index * 3) for index in range(3000)]
    for pair in pairs:
        count += (pair.a ^ pair.b) & 0xFF
    return acc + count


class Calibrator:
    """Host speed, measured with the same clock as the workload.

    Shared cloud hosts slow down by up to a third for seconds to minutes
    at a time, so raw host times of one seed do not repeat from one run
    to the next.  The workloads time :func:`_reference` between units of
    work, on the one CPU the run is pinned to, and multiply every time
    they measure by :meth:`local` (or :meth:`probe`): the time it would
    have taken on a host where the reference takes :data:`REFERENCE_S`.
    Rates are divided by it.
    """

    #: Least time between two samples taken by :meth:`tick`.
    interval_s = 0.25

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        """Time the reference ``count`` times."""
        # A collection of the workload's heap must not land in the sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                began = time.perf_counter()
                _reference()
                self.samples.append(time.perf_counter() - began)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if :attr:`interval_s` passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def probe(self) -> float:
        """Sample once; the scale from that sample alone."""
        self.sample()
        return REFERENCE_S / self.samples[-1]

    def local(self) -> float:
        """Scale from the latest samples (the last three)."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / median(self.samples[-3:])

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def scale(self) -> float:
        """Scale from every sample of the run."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / median(self.samples)


def usable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    cpus = usable_cpus()
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})


@dataclass
class PassResult:
    """One measured pass: end-to-end figures, per-layer figures (traced
    passes only), the sample counts behind them and figures every run
    records whether traced or not."""

    end_to_end: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)


def freeze_inputs() -> None:
    """Take the generated inputs out of the garbage collector's view.

    They are ~10^5 long-lived objects the program under test never
    allocated; every full collection would walk them, and where such a
    pause lands showed up as noise in the latency tails.
    """
    gc.collect()
    gc.freeze()


def timed(setup: Callable[[], object], calibrator: "Calibrator") -> Tuple[object, List[float]]:
    """Timed set-ups, host-scaled; keeps the last system.

    At least :data:`SETUP_REPEATS`, more while they add up to under
    :data:`SETUP_BUDGET_S`, so a cheap set-up's median rests on many.
    """
    times: List[float] = []
    system = None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX
    ):
        calibrator.tick()
        started = time.perf_counter()
        system = setup()
        times.append((time.perf_counter() - started) * calibrator.local())
    return system, times


# ---------------------------------------------------------------------- #
# process accounting (Linux /proc where available)
# ---------------------------------------------------------------------- #
def _proc_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ")".
    return text[text.rfind(")") + 2:].split()


def cpu_seconds(child_pids: Sequence[int] = ()) -> float:
    """User+system CPU of this process plus the given live children."""
    times = os.times()
    total = times.user + times.system
    ticks = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
    for pid in child_pids:
        fields = _proc_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(child_pids: Sequence[int]) -> float:
    """Largest peak resident set among the given live children."""
    peak = 0.0
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


def child_pids() -> List[int]:
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.pid]


# ---------------------------------------------------------------------- #
# the run record
# ---------------------------------------------------------------------- #
def git_sha(root: str) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, nproc: int) -> Dict[str, object]:
    """Everything a later ledger entry needs to compare like with like;
    ``nproc`` is the CPU count before the run pinned itself to one."""
    from repro.engine import EngineSpec

    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "machine": platform.machine(),
        "backend": EngineSpec().backend,
    }
