"""Fleet-level accounting: per-node and per-SLO views through the router.

:class:`ClusterMetrics` is the cluster-scope analogue of the pool's
:class:`~repro.service.metrics.PoolMetrics`: one :class:`NodeMetrics`
per worker node (surviving the node itself — a dead node's counters are
kept, marked ``state="dead"``), plus the router-level events no single
node owns (rate-limited rejections, protocol errors, jobs re-dispatched
after a node loss, jobs that exhausted their retries).

Each worker heartbeat piggybacks the node's own
``Server.metrics_summary()`` — the warm-cache counters, batch sizes and
worker-side latency percentiles of that node's serving layer — so
:meth:`ClusterMetrics.rollup` aggregates the *fleet's* shard metrics
through the router without a separate stats round-trip, exactly like the
pool piggybacks engine counters on reply tuples.

Latency is additionally tracked per SLO class at the router (submission
to response, network and placement included), which is the number an SLO
tier is actually judged by.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.service.metrics import LatencyStats

__all__ = ["ClusterMetrics", "NodeMetrics"]


@dataclass
class NodeMetrics:
    """What one worker node has done, as observed by the router."""

    node: str
    #: ``"live"``, ``"draining"`` or ``"dead"``.
    state: str = "live"
    #: Jobs placed on this node (including re-dispatches *to* it).
    dispatched: int = 0
    #: Jobs this node answered successfully.
    completed: int = 0
    #: Jobs this node answered with an error.
    failed: int = 0
    #: Jobs re-dispatched to this node after another node was lost.
    redispatched: int = 0
    #: Jobs dispatched here but re-dispatched (or failed) elsewhere —
    #: this node died with them in flight or bounced them as overload.
    handed_off: int = 0
    #: Operand pairs / graph nodes placed on this node.
    pairs: int = 0
    #: Jobs placed here although another node was the modulus's home
    #: (replica placement for hot moduli).
    replica_placements: int = 0
    joined_at: float = field(default_factory=time.monotonic)
    last_heartbeat_at: Optional[float] = None
    #: The node's latest ``Server.metrics_summary()`` snapshot.
    heartbeat: Dict[str, object] = field(default_factory=dict)
    #: Router-observed per-job latency on this node.
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def inflight(self) -> int:
        """Jobs dispatched but not yet answered (the placement load view)."""
        return self.dispatched - self.completed - self.failed - self.handed_off

    def record_heartbeat(self, summary: Dict[str, object]) -> None:
        """One heartbeat: refresh liveness and the metrics snapshot."""
        self.last_heartbeat_at = time.monotonic()
        self.heartbeat = summary

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly per-node rollup."""
        return {
            "node": self.node,
            "state": self.state,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": self.inflight,
            "redispatched": self.redispatched,
            "handed_off": self.handed_off,
            "replica_placements": self.replica_placements,
            "pairs": self.pairs,
            "latency": self.latency.as_dict(),
            "heartbeat": self.heartbeat,
        }


@dataclass
class ClusterMetrics:
    """Everything the router counts while the fleet serves."""

    nodes: Dict[str, NodeMetrics] = field(default_factory=dict)
    #: Requests admitted by the router (placed or queued for placement).
    submitted: int = 0
    #: Requests answered with products.
    completed: int = 0
    #: Requests answered with an error (deadline, admission, crash...).
    failed: int = 0
    #: Requests rejected by the per-tenant token bucket.
    rate_limited: int = 0
    #: Malformed/oversized/unknown frames answered with a structured error.
    protocol_errors: int = 0
    #: Job re-dispatches after a node loss.
    redispatches: int = 0
    #: Worker nodes declared lost (dead connection or missed heartbeats).
    lost_nodes: int = 0
    started_at: Optional[float] = None
    #: Router-observed latency per SLO class name.
    slo_latency: Dict[str, LatencyStats] = field(default_factory=dict)
    #: Completions per tenant (the fairness view).
    per_tenant_completed: Dict[str, int] = field(default_factory=dict)
    #: Outbound frame accounting shared by every CoalescingSender the
    #: router owns: ``messages`` queued, ``frames`` written, and how
    #: many of those frames were coalesced multi-message bundles.
    wire_frames: Dict[str, int] = field(
        default_factory=lambda: {
            "messages": 0,
            "frames": 0,
            "coalesced_frames": 0,
        }
    )

    def start(self) -> None:
        """Mark serving start (throughput denominators)."""
        self.started_at = time.monotonic()

    @property
    def elapsed_seconds(self) -> float:
        """Seconds since :meth:`start` (0 before it)."""
        if self.started_at is None:
            return 0.0
        return max(time.monotonic() - self.started_at, 0.0)

    def node(self, name: str) -> NodeMetrics:
        """The (created-on-first-use) metrics slot of one node."""
        if name not in self.nodes:
            self.nodes[name] = NodeMetrics(node=name)
        return self.nodes[name]

    def record_completion(
        self, tenant: str, slo: str, latency_s: float
    ) -> None:
        """One answered request, attributed to its tenant and SLO tier."""
        self.completed += 1
        self.per_tenant_completed[tenant] = (
            self.per_tenant_completed.get(tenant, 0) + 1
        )
        if slo not in self.slo_latency:
            self.slo_latency[slo] = LatencyStats()
        self.slo_latency[slo].record(latency_s)

    def rollup(self) -> Dict[str, object]:
        """The JSON-friendly fleet summary (``stats`` frames, loadtest)."""
        elapsed = self.elapsed_seconds
        live = [n for n in self.nodes.values() if n.state == "live"]
        return {
            "kind": "cluster",
            "nodes": len(self.nodes),
            "live_nodes": len(live),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": sum(n.inflight for n in self.nodes.values()),
            "rate_limited": self.rate_limited,
            "protocol_errors": self.protocol_errors,
            "redispatches": self.redispatches,
            "lost_nodes": self.lost_nodes,
            "elapsed_seconds": elapsed,
            "requests_per_second": (
                self.completed / elapsed if elapsed else 0.0
            ),
            "per_slo_latency": {
                name: stats.as_dict()
                for name, stats in sorted(self.slo_latency.items())
            },
            "per_tenant_completed": dict(
                sorted(self.per_tenant_completed.items())
            ),
            "wire_frames": dict(self.wire_frames),
            "per_node": {
                name: metrics.as_dict()
                for name, metrics in sorted(self.nodes.items())
            },
        }
