"""Latency / throughput / queue metrics for the serving layer.

Pure-python accounting: the server records one sample per completed
request and one per executed batch; :meth:`ServiceMetrics.summary`
condenses them into the payload the self-test traffic returns, which the
``serving-throughput`` experiment and ``BENCH_serve.json`` report.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.engine.cache import CacheStats

__all__ = ["LatencyStats", "PoolMetrics", "ServiceMetrics", "ShardMetrics"]

#: Samples kept for percentile estimation; older samples roll off so a
#: long-lived server's memory stays bounded.
LATENCY_WINDOW = 4096


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[rank]


@dataclass
class LatencyStats:
    """Request latency accounting (seconds) with percentile summaries.

    Only the most recent :data:`LATENCY_WINDOW` samples are retained (a
    rolling window over recent traffic), so memory stays bounded on a
    long-lived server; ``count`` and ``mean_ms`` cover *every* recorded
    sample.
    """

    samples: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    total: int = 0
    total_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)
        self.total += 1
        self.total_seconds += seconds

    @property
    def count(self) -> int:
        return self.total

    @property
    def mean_ms(self) -> float:
        if not self.total:
            return 0.0
        return self.total_seconds / self.total * 1e3

    def as_dict(self) -> Dict[str, float]:
        window = sorted(self.samples)
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": _percentile(window, 0.50) * 1e3,
            "p95_ms": _percentile(window, 0.95) * 1e3,
            "p99_ms": _percentile(window, 0.99) * 1e3,
        }


@dataclass
class ShardMetrics:
    """What one pool shard (worker slot) has done.

    A shard slot survives worker restarts: when the pool replaces a
    crashed process, the slot's cumulative counters keep counting and the
    counters the *worker* reports (its engine's multiplications and
    context-cache hits/misses, which die with the process) fold into
    ``retired_*`` totals so nothing resets to zero mid-flight.
    """

    shard: int
    #: Jobs dispatched to this shard (including re-dispatches after crashes).
    jobs: int = 0
    #: Operand pairs / graph nodes dispatched to this shard.
    pairs: int = 0
    #: Jobs this shard received although another shard was their hash home.
    spilled_jobs: int = 0
    #: Jobs re-dispatched *to* this shard after their worker crashed.
    retried_jobs: int = 0
    #: Times this slot's worker process was replaced after a crash.
    restarts: int = 0
    #: Per-job worker-side execution time (busy time, not queue time).
    execution: LatencyStats = field(default_factory=LatencyStats)
    #: Latest counters reported by the live worker's engine.
    worker_multiplications: int = 0
    worker_cache: CacheStats = field(default_factory=CacheStats)
    #: Counters of crashed predecessors, folded on restart.
    retired_multiplications: int = 0
    retired_cache: CacheStats = field(default_factory=CacheStats)

    def record_dispatch(self, pairs: int, spilled: bool, retry: bool) -> None:
        self.jobs += 1
        self.pairs += pairs
        if spilled:
            self.spilled_jobs += 1
        if retry:
            self.retried_jobs += 1

    def record_report(
        self, elapsed_s: float, multiplications: int, cache: Dict[str, float]
    ) -> None:
        """One worker result: execution time plus the engine's counters."""
        self.execution.record(elapsed_s)
        self.worker_multiplications = multiplications
        self.worker_cache = CacheStats.from_dict(cache)

    def record_restart(self) -> None:
        """Fold the dead worker's last-reported counters and count the loss."""
        self.restarts += 1
        self.retired_multiplications += self.worker_multiplications
        self.retired_cache = self.retired_cache.merged_with(self.worker_cache)
        self.worker_multiplications = 0
        self.worker_cache = CacheStats()

    @property
    def multiplications(self) -> int:
        """Engine multiplications across every worker this slot has run."""
        return self.retired_multiplications + self.worker_multiplications

    def cache_stats(self) -> CacheStats:
        """Context-cache counters across every worker this slot has run."""
        return self.retired_cache.merged_with(self.worker_cache)

    @property
    def busy_seconds(self) -> float:
        """Total worker-side execution time attributed to this shard."""
        return self.execution.total_seconds

    def utilization(self, elapsed_seconds: float) -> float:
        """Busy fraction of this shard over the pool's lifetime."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(self.busy_seconds / elapsed_seconds, 1.0)

    def as_dict(self, elapsed_seconds: float) -> Dict[str, object]:
        """JSON-friendly per-shard rollup."""
        return {
            "shard": self.shard,
            "jobs": self.jobs,
            "pairs": self.pairs,
            "spilled_jobs": self.spilled_jobs,
            "retried_jobs": self.retried_jobs,
            "restarts": self.restarts,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(elapsed_seconds),
            "execution": self.execution.as_dict(),
            "multiplications": self.multiplications,
            "cache": self.cache_stats().as_dict(),
        }


@dataclass
class PoolMetrics:
    """Per-shard accounting of one :class:`~repro.service.pool.PoolExecutor`.

    One :class:`ShardMetrics` per worker slot, plus the pool-level events
    no single shard owns (jobs that exhausted their retries).  The rollup
    is what ``Server.metrics_summary()`` exposes under ``executor``.
    """

    shards: List[ShardMetrics] = field(default_factory=list)
    #: Jobs that failed permanently because retries were exhausted.
    failed_jobs: int = 0
    started_at: Optional[float] = None

    @classmethod
    def for_workers(cls, workers: int) -> "PoolMetrics":
        return cls(shards=[ShardMetrics(shard=index) for index in range(workers)])

    def start(self) -> None:
        self.started_at = time.perf_counter()

    @property
    def elapsed_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return max(time.perf_counter() - self.started_at, 0.0)

    @property
    def spilled_jobs(self) -> int:
        return sum(shard.spilled_jobs for shard in self.shards)

    @property
    def retried_jobs(self) -> int:
        return sum(shard.retried_jobs for shard in self.shards)

    @property
    def worker_restarts(self) -> int:
        return sum(shard.restarts for shard in self.shards)

    def cache_stats(self) -> CacheStats:
        """Context-cache counters merged across every shard."""
        merged = CacheStats()
        for shard in self.shards:
            merged = merged.merged_with(shard.cache_stats())
        return merged

    def multiplications(self) -> int:
        """Engine multiplications summed across every shard."""
        return sum(shard.multiplications for shard in self.shards)

    def rollup(self) -> Dict[str, object]:
        """Pool-level summary plus the per-shard breakdowns."""
        elapsed = self.elapsed_seconds
        utilizations = [shard.utilization(elapsed) for shard in self.shards]
        return {
            "workers": len(self.shards),
            "jobs": sum(shard.jobs for shard in self.shards),
            "pairs": sum(shard.pairs for shard in self.shards),
            "spilled_jobs": self.spilled_jobs,
            "retried_jobs": self.retried_jobs,
            "failed_jobs": self.failed_jobs,
            "worker_restarts": self.worker_restarts,
            "elapsed_seconds": elapsed,
            "mean_utilization": (
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            "multiplications": self.multiplications(),
            "cache": self.cache_stats().as_dict(),
            "per_shard": [shard.as_dict(elapsed) for shard in self.shards],
        }


@dataclass
class ServiceMetrics:
    """Everything the server counts while it runs."""

    latency: LatencyStats = field(default_factory=LatencyStats)
    queue_latency: LatencyStats = field(default_factory=LatencyStats)
    completed_requests: int = 0
    completed_multiplications: int = 0
    rejected_requests: int = 0
    deadline_misses: int = 0
    batches: int = 0
    batched_pairs: int = 0
    per_tenant_completed: Dict[str, int] = field(default_factory=dict)
    started_at: Optional[float] = None
    stopped_at: Optional[float] = None
    #: Serving time of completed start/stop cycles, so throughput stays
    #: honest across server restarts (counters span runs; so must time).
    accumulated_seconds: float = 0.0

    def start(self) -> None:
        if self.started_at is not None and self.stopped_at is not None:
            self.accumulated_seconds += max(
                self.stopped_at - self.started_at, 0.0
            )
        self.started_at = time.perf_counter()
        self.stopped_at = None

    def stop(self) -> None:
        self.stopped_at = time.perf_counter()

    @property
    def elapsed_seconds(self) -> float:
        if self.started_at is None:
            return self.accumulated_seconds
        end = self.stopped_at if self.stopped_at is not None else time.perf_counter()
        return self.accumulated_seconds + max(end - self.started_at, 0.0)

    def record_completion(
        self, tenant: str, multiplications: int, latency_s: float, queued_s: float
    ) -> None:
        self.completed_requests += 1
        self.completed_multiplications += multiplications
        self.latency.record(latency_s)
        self.queue_latency.record(queued_s)
        self.per_tenant_completed[tenant] = (
            self.per_tenant_completed.get(tenant, 0) + 1
        )

    def record_batch(self, pairs: int) -> None:
        self.batches += 1
        self.batched_pairs += pairs

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.batched_pairs / self.batches

    @property
    def requests_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.completed_requests / elapsed if elapsed else 0.0

    @property
    def multiplications_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.completed_multiplications / elapsed if elapsed else 0.0

    def summary(self) -> Dict[str, object]:
        """The JSON-friendly metrics payload."""
        return {
            "completed_requests": self.completed_requests,
            "completed_multiplications": self.completed_multiplications,
            "rejected_requests": self.rejected_requests,
            "deadline_misses": self.deadline_misses,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_second": self.requests_per_second,
            "multiplications_per_second": self.multiplications_per_second,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "latency": self.latency.as_dict(),
            "queue_latency": self.queue_latency.as_dict(),
            "per_tenant_completed": dict(sorted(self.per_tenant_completed.items())),
        }
