"""Serving throughput: the async layer under multi-tenant traffic.

Beyond-the-paper exhibit for the roadmap's online story: drive the
:mod:`repro.service` server with the built-in self-test traffic mix
(``tenants`` concurrent clients, operand batches plus product-tree
workload graphs, every product verified against the big-int reference)
and report throughput, latency percentiles, batching efficiency and
context-cache behaviour.

Registered as experiment ``serving-throughput`` in
:mod:`repro.experiments`, and reachable as ``repro experiment run
serving-throughput`` or the ``repro serve`` shortcut.  The
wall-clock figures are machine-dependent (they measure *this* host's
event loop and python arithmetic); the structural figures — requests
verified, batches formed, coalescing factor, cache hit rate — are
deterministic for a given parameterisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.engine import EngineSpec
from repro.tables import render_table

__all__ = ["ServingThroughputResult", "reproduce_serving_throughput"]


@dataclass(frozen=True)
class ServingThroughputResult:
    """One traffic run of the async serving layer."""

    backend: str
    tenants: int
    requests_per_tenant: int
    pairs_per_request: int
    #: Pool worker processes executing the batches (0 = inline).
    workers: int
    completed_requests: int
    verified_requests: int
    rejected_requests: int
    deadline_misses: int
    completed_multiplications: int
    batches: int
    mean_batch_size: float
    elapsed_seconds: float
    requests_per_second: float
    multiplications_per_second: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float

    @property
    def coalescing_factor(self) -> float:
        """Requests folded into each engine batch call (>1 = batching won)."""
        if not self.batches:
            return 0.0
        return self.completed_requests / self.batches

    def render(self) -> str:
        """Text table of the serving run."""
        rows = [
            ("executor",
             "inline (event loop)" if not self.workers
             else f"pool, {self.workers} worker processes"),
            ("completed / verified requests",
             f"{self.completed_requests} / {self.verified_requests}"),
            ("rejected (admission)", self.rejected_requests),
            ("deadline misses", self.deadline_misses),
            ("modular multiplications", self.completed_multiplications),
            ("engine batches formed", self.batches),
            ("mean batch size (pairs)", round(self.mean_batch_size, 2)),
            ("coalescing factor (req/batch)", round(self.coalescing_factor, 2)),
            ("throughput (requests/s)", round(self.requests_per_second, 1)),
            ("throughput (mul/s)", round(self.multiplications_per_second, 1)),
            ("latency p50 (ms)", round(self.latency_p50_ms, 3)),
            ("latency p95 (ms)", round(self.latency_p95_ms, 3)),
            ("latency p99 (ms)", round(self.latency_p99_ms, 3)),
            ("context-cache hit rate",
             f"{self.cache_hit_rate:.3f} ({self.cache_hits}/{self.cache_hits + self.cache_misses})"),
        ]
        return render_table(
            ("metric", "value"),
            rows,
            title=(
                f"Async serving layer on {self.backend} "
                f"({self.tenants} tenants x {self.requests_per_tenant} "
                f"requests, {self.pairs_per_request} pairs each)"
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "backend": self.backend,
            "tenants": self.tenants,
            "requests_per_tenant": self.requests_per_tenant,
            "pairs_per_request": self.pairs_per_request,
            "workers": self.workers,
            "completed_requests": self.completed_requests,
            "verified_requests": self.verified_requests,
            "rejected_requests": self.rejected_requests,
            "deadline_misses": self.deadline_misses,
            "completed_multiplications": self.completed_multiplications,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "coalescing_factor": self.coalescing_factor,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_second": self.requests_per_second,
            "multiplications_per_second": self.multiplications_per_second,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
        }


def reproduce_serving_throughput(
    backend: str = EngineSpec.backend,
    curve: str = "bn254",
    tenants: int = 4,
    requests: int = 32,
    pairs_per_request: int = 8,
    graph_every: int = 8,
    graph_leaves: int = 16,
    max_batch: int = 64,
    seed: int = 2024,
    workers: int = 0,
) -> ServingThroughputResult:
    """Run the self-test traffic mix and condense its metrics.

    ``workers=N`` shards batch execution across N engine-owning worker
    processes (the :class:`~repro.service.pool.PoolExecutor`); products
    stay bit-identical to inline serving, so only the wall-clock figures
    move.
    """
    from repro.service.selftest import run_self_test

    summary = run_self_test(
        backend=backend,
        curve=curve,
        tenants=int(tenants),
        requests=int(requests),
        pairs_per_request=int(pairs_per_request),
        graph_every=int(graph_every),
        graph_leaves=int(graph_leaves),
        max_batch=int(max_batch),
        seed=int(seed),
        workers=int(workers),
    )
    latency = summary["latency"]
    cache = summary["context_cache"]
    return ServingThroughputResult(
        backend=str(summary["backend"]),
        tenants=int(summary["tenants"]),
        requests_per_tenant=int(summary["requests_per_tenant"]),
        pairs_per_request=int(summary["pairs_per_request"]),
        workers=int(summary["workers"]),
        completed_requests=int(summary["completed_requests"]),
        verified_requests=int(summary["verified_requests"]),
        rejected_requests=int(summary["rejected_requests"]),
        deadline_misses=int(summary["deadline_misses"]),
        completed_multiplications=int(summary["completed_multiplications"]),
        batches=int(summary["batches"]),
        mean_batch_size=float(summary["mean_batch_size"]),
        elapsed_seconds=float(summary["elapsed_seconds"]),
        requests_per_second=float(summary["requests_per_second"]),
        multiplications_per_second=float(summary["multiplications_per_second"]),
        latency_p50_ms=float(latency["p50_ms"]),
        latency_p95_ms=float(latency["p95_ms"]),
        latency_p99_ms=float(latency["p99_ms"]),
        cache_hits=int(cache["hits"]),
        cache_misses=int(cache["misses"]),
        cache_hit_rate=float(cache["hit_rate"]),
    )
