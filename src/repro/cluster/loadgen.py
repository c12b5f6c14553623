"""Trace-driven multi-tenant load generation against a cluster router.

A load test is two separable halves:

* :func:`build_trace` turns a set of :class:`TenantProfile` s into a
  deterministic, seeded list of timestamped :class:`TraceEvent` s —
  *what* arrives *when*, with real random operands.  Determinism
  matters: the same seed replays the same operands at the same offsets,
  so a regression in a kill-recovery run is reproducible, not an
  anecdote.
* :func:`replay` opens one :class:`~repro.cluster.client.ClusterClient`
  per tenant, fires each event at its offset (scaled by
  ``time_scale``), verifies every answered product against big-int
  reference arithmetic and folds the outcome into a JSON-friendly
  report — including ``lost``, the number of requests that got *no*
  answer at all, which a healthy fleet must keep at zero even across a
  node kill.

Three arrival patterns model the shapes a shared fleet actually sees:
``steady`` (Poisson at a flat rate), ``diurnal`` (the rate follows a
sinusoid over the trace — day/night), ``bursty`` (on/off duty cycle —
batch jobs).
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.client import ClusterClient
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    ReproError,
)
from repro.service.metrics import LatencyStats

__all__ = ["TenantProfile", "TraceEvent", "build_trace", "replay"]

#: Arrival patterns :func:`build_trace` understands.
_PATTERNS = ("steady", "diurnal", "bursty")


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic shape in a generated trace."""

    name: str
    #: ``steady``, ``diurnal`` or ``bursty``.
    pattern: str = "steady"
    #: Mean request rate (requests/second of trace time).
    rate: float = 20.0
    #: Operand pairs per request.
    pairs_per_request: int = 4
    #: Operand bit width (operands are uniform in ``[0, modulus)``).
    bit_width: int = 64
    #: Modulus of this tenant's requests (``None`` = a per-tenant prime
    #: chosen deterministically from the seed, so different tenants hit
    #: different warm caches).
    modulus: Optional[int] = None
    #: SLO class name this tenant requests (``None`` = router default).
    slo: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {_PATTERNS}, got {self.pattern!r}"
            )
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.pairs_per_request < 1:
            raise ConfigurationError(
                f"pairs_per_request must be >= 1, got {self.pairs_per_request}"
            )

    def rate_at(self, at_s: float, duration_s: float) -> float:
        """The instantaneous arrival rate at trace offset ``at_s``."""
        if self.pattern == "steady":
            return self.rate
        phase = (at_s / duration_s) if duration_s > 0 else 0.0
        if self.pattern == "diurnal":
            # One full day over the trace: peak at mid-trace, trough at
            # the edges, mean equal to the configured rate.
            return self.rate * (1.0 - math.cos(2 * math.pi * phase))
        # bursty: 25% duty cycle at 4x rate (same mean).
        return self.rate * 4.0 if (phase * 8) % 2 < 0.5 else 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One request in a generated trace."""

    #: Trace-time offset the request fires at, seconds.
    at_s: float
    tenant: str
    #: Operand pairs (the request payload).
    pairs: Tuple[Tuple[int, int], ...]
    modulus: int
    #: SLO class name (``None`` = router default).
    slo: Optional[str] = None


def _tenant_modulus(profile: TenantProfile, rng: random.Random) -> int:
    """This tenant's modulus: configured, or a seeded odd number.

    An odd modulus is all the arithmetic requires; primality is not
    needed for modular multiplication, and skipping the search keeps
    trace generation fast and exactly reproducible.
    """
    if profile.modulus is not None:
        return profile.modulus
    return rng.getrandbits(profile.bit_width) | (1 << (profile.bit_width - 1)) | 1


def build_trace(
    profiles: Sequence[TenantProfile],
    duration_s: float = 2.0,
    seed: int = 0,
) -> List[TraceEvent]:
    """A deterministic multi-tenant arrival trace, sorted by time.

    Arrivals are thinned non-homogeneous Poisson: candidates are drawn
    at each profile's peak rate and kept with probability
    ``rate_at(t) / peak``, which realizes the diurnal/bursty envelopes
    exactly without time-stepping.
    """
    if duration_s <= 0:
        raise ConfigurationError(
            f"duration_s must be positive, got {duration_s}"
        )
    if not profiles:
        raise ConfigurationError("build_trace needs at least one profile")
    events: List[TraceEvent] = []
    for index, profile in enumerate(profiles):
        rng = random.Random((seed, index, profile.name).__repr__())
        modulus = _tenant_modulus(profile, rng)
        peak = profile.rate * 4.0  # bursty's on-phase is the max envelope
        at_s = 0.0
        while True:
            at_s += rng.expovariate(peak)
            if at_s >= duration_s:
                break
            if rng.random() * peak > profile.rate_at(at_s, duration_s):
                continue
            pairs = tuple(
                (rng.randrange(modulus), rng.randrange(modulus))
                for _ in range(profile.pairs_per_request)
            )
            events.append(
                TraceEvent(
                    at_s=at_s,
                    tenant=profile.name,
                    pairs=pairs,
                    modulus=modulus,
                    slo=profile.slo,
                )
            )
    events.sort(key=lambda event: (event.at_s, event.tenant))
    return events


@dataclass
class _Outcome:
    """Mutable tally shared by the per-event replay tasks."""

    sent: int = 0
    completed: int = 0
    rejected: int = 0
    deadline_misses: int = 0
    failed: int = 0
    mismatches: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    per_tenant: Dict[str, int] = field(default_factory=dict)


async def replay(
    host: str,
    port: int,
    trace: Sequence[TraceEvent],
    time_scale: float = 1.0,
    verify: bool = True,
) -> Dict[str, object]:
    """Fire a trace at a router and report what came back.

    Every event is awaited to *some* outcome — products, a structured
    error, or a connection failure — so ``lost`` (sent minus answered)
    is an honest count of silently dropped requests, the number the
    node-kill acceptance criterion is judged by.  ``time_scale`` < 1
    compresses trace time (a 10 s trace replays in 1 s at 0.1).
    """
    if time_scale <= 0:
        raise ConfigurationError(
            f"time_scale must be positive, got {time_scale}"
        )
    tenants = sorted({event.tenant for event in trace})
    clients: Dict[str, ClusterClient] = {}
    outcome = _Outcome()

    async def _fire(event: TraceEvent) -> None:
        client = clients[event.tenant]
        outcome.sent += 1
        try:
            response = await client.multiply_batch(
                event.pairs, modulus=event.modulus, slo=event.slo
            )
        except AdmissionError:
            outcome.rejected += 1
            return
        except DeadlineError:
            outcome.deadline_misses += 1
            return
        except ReproError:
            outcome.failed += 1
            return
        outcome.completed += 1
        outcome.per_tenant[event.tenant] = (
            outcome.per_tenant.get(event.tenant, 0) + 1
        )
        outcome.latency.record(response.router_latency_ms / 1e3)
        if verify:
            expected = tuple(
                (a * b) % event.modulus for a, b in event.pairs
            )
            if response.values != expected:
                outcome.mismatches += 1

    try:
        for tenant in tenants:
            clients[tenant] = await ClusterClient(
                host, port, tenant=tenant
            ).connect()
        loop = asyncio.get_running_loop()
        started = loop.time()
        tasks: List[asyncio.Task] = []
        for event in trace:
            delay = event.at_s * time_scale - (loop.time() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(_fire(event)))
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        stats: Dict[str, object] = {}
        try:
            stats = await clients[tenants[0]].stats() if tenants else {}
        except ReproError:
            pass
    finally:
        for client in clients.values():
            await client.close()

    answered = (
        outcome.completed
        + outcome.rejected
        + outcome.deadline_misses
        + outcome.failed
    )
    return {
        "kind": "cluster-loadtest",
        "events": len(trace),
        "tenants": tenants,
        "sent": outcome.sent,
        "completed": outcome.completed,
        "rejected": outcome.rejected,
        "deadline_misses": outcome.deadline_misses,
        "failed": outcome.failed,
        "lost": outcome.sent - answered,
        "mismatches": outcome.mismatches,
        "verified": verify,
        "latency": outcome.latency.as_dict(),
        "per_tenant_completed": dict(sorted(outcome.per_tenant.items())),
        "cluster": stats,
    }
