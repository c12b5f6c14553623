"""Multi-node serving fleet: router/worker split over sockets.

The :mod:`repro.service` layer serves one process (optionally with a
process pool under it); this package scales the same serving contract
across *nodes*.  One :class:`Router` owns placement and policy; any
number of :class:`WorkerNode` s dial in, each wrapping its own
:class:`~repro.service.server.Server` built from the fleet's single
:class:`~repro.engine.EngineSpec`; :class:`ClusterClient` s submit the
same batches and operand-carrying graphs they would submit in-process
and get back the same products, bit-identical — the fleet is a
throughput amplifier, never an arithmetic variable.

The moving parts, bottom-up:

* :mod:`repro.cluster.protocol` — the one struct-packed binary framing
  every connection speaks from its first byte: JSON meta plus
  operands/products as fixed-width little-endian blobs, with structured
  error answers for malformed/oversized/unknown frames;
* :mod:`repro.cluster.ring` — consistent-hash placement of moduli so
  membership churn re-homes ~1/N of the key space, with replication for
  hot moduli (:class:`HashRing`);
* :mod:`repro.cluster.slo` — named latency tiers resolved into the
  serving layer's deadlines and priorities (:class:`SloClass`,
  :class:`SloCatalog`);
* :mod:`repro.cluster.ratelimit` — per-tenant token buckets at the
  router's front door (:class:`TenantRateLimiter`);
* :mod:`repro.cluster.metrics` — per-node and per-SLO accounting
  aggregated through heartbeats (:class:`ClusterMetrics`);
* :mod:`repro.cluster.router` / :mod:`repro.cluster.worker` /
  :mod:`repro.cluster.client` — the three roles;
* :mod:`repro.cluster.loadgen` — deterministic diurnal/bursty
  multi-tenant traces and their replay verdicts;
* :mod:`repro.cluster.fleet` — :class:`LocalFleet`, a one-call local
  cluster with killable worker processes, and :func:`run_loadtest`,
  the scenario the CLI, CI smoke and benchmark all run.

Failure handling generalizes the pool's crash-retry machinery: a lost
node's in-flight jobs re-dispatch to surviving replicas with job-id
dedup, so a SIGKILL mid-batch costs latency, not answers.
"""

from __future__ import annotations

from repro.cluster.client import ClusterClient, ClusterResponse
from repro.cluster.fleet import LocalFleet, run_loadtest
from repro.cluster.loadgen import TenantProfile, TraceEvent, build_trace, replay
from repro.cluster.metrics import ClusterMetrics, NodeMetrics
from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    CoalescingSender,
    Connection,
    PackedInts,
    decode_frame_v2,
    encode_frame_v2,
)
from repro.cluster.ratelimit import TenantRateLimiter, TokenBucket
from repro.cluster.ring import HashRing, stable_hash
from repro.cluster.router import Router, RouterConfig
from repro.cluster.slo import DEFAULT_SLO_CLASSES, SloCatalog, SloClass
from repro.cluster.worker import WorkerConfig, WorkerNode, run_worker

__all__ = [
    "CoalescingSender",
    "ClusterClient",
    "ClusterMetrics",
    "ClusterResponse",
    "Connection",
    "HashRing",
    "LocalFleet",
    "NodeMetrics",
    "PackedInts",
    "Router",
    "RouterConfig",
    "SloCatalog",
    "SloClass",
    "TenantProfile",
    "TenantRateLimiter",
    "TokenBucket",
    "TraceEvent",
    "WorkerConfig",
    "WorkerNode",
    "build_trace",
    "decode_frame_v2",
    "encode_frame_v2",
    "replay",
    "run_loadtest",
    "run_worker",
    "stable_hash",
]
