"""The fleet's front end: placement, replication, SLOs, node lifecycle.

One :class:`Router` listens on a single TCP port for two kinds of
peers, told apart by their first frame:

* **workers** (``join``) — the router answers with the fleet's
  :class:`~repro.engine.EngineSpec` (every node builds an identical
  engine, which is what makes cross-node retries bit-identical), adds
  the node to the consistent-hash ring and starts accepting its
  heartbeats and results;
* **clients** (``hello``) — the router admits their ``submit`` frames
  through per-tenant token buckets, resolves each request's SLO class
  into a deadline + priority, and places the job on a node.

**Placement.**  A modulus's home is its consistent-hash owner, so its
per-modulus context (LUTs, Montgomery constants) warms once and stays
hot on one node — the pool's shard-affinity argument at fleet scope.
:attr:`RouterConfig.replication` widens placement to the first R ring
owners: a *hot* modulus spreads across R warm caches (the router picks
the least-loaded replica) instead of melting its home node.

**Node loss.**  The pool's crash-retry machinery, generalized over the
wire: a worker connection dropping (or its heartbeats going stale) marks
the node dead, removes it from the ring, and re-dispatches every job
that was in flight on it to a surviving replica — jobs are pure
functions of their payload, so the retry is idempotent, and results are
deduplicated by job id in case the dead node had already answered.  A
job that outlives :attr:`RouterConfig.max_retries` node losses fails
with :class:`~repro.errors.WorkerCrashError`.  A worker announcing
``leave`` drains gracefully: no new placements, in-flight jobs finish,
then the router answers ``bye``.

**Protocol robustness.**  Malformed, oversized and unknown-type frames,
and submits whose fields have the wrong shape, are answered with a
structured ``error`` response and counted; the connection state
survives (see :mod:`repro.cluster.protocol`).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    CoalescingSender,
    Connection,
    PackedInts,
)
from repro.cluster.ratelimit import TenantRateLimiter
from repro.cluster.ring import HashRing
from repro.cluster.slo import SloCatalog
from repro.engine import EngineSpec
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceError,
    WorkerCrashError,
)

__all__ = ["Router", "RouterConfig"]


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of the cluster router."""

    #: Listen address (``port=0`` binds an ephemeral port; the bound
    #: port is :attr:`Router.port` after :meth:`Router.start`).
    host: str = "127.0.0.1"
    port: int = 0
    #: Ring owners a modulus may be placed on (1 = strict home affinity;
    #: R > 1 spreads hot moduli across R warm caches).
    replication: int = 2
    #: Interval workers are told to heartbeat at.
    heartbeat_interval_s: float = 0.25
    #: Heartbeat silence after which a *connected* node is declared dead.
    #: Generous by default: an inline worker's event loop blocks while a
    #: big batch computes, and a killed node is caught much earlier by
    #: its connection dropping — the timeout only catches wedged nodes.
    heartbeat_timeout_s: float = 30.0
    #: Liveness scan interval of the monitor task.
    monitor_interval_s: float = 0.05
    #: Frame size limit (both directions).
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Cross-node re-dispatches a job survives before failing with
    #: :class:`WorkerCrashError`.
    max_retries: int = 2
    #: Per-tenant token-bucket rate (pairs/second; ``None`` = unlimited).
    rate_per_tenant: Optional[float] = None
    #: Bucket capacity (defaults to twice the rate).
    burst_per_tenant: Optional[float] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if (
            self.heartbeat_interval_s <= 0
            or self.heartbeat_timeout_s <= 0
            or self.monitor_interval_s <= 0
        ):
            raise ConfigurationError("router intervals must be positive")


@dataclass
class _WorkerSession:
    """Router-side state of one connected worker node."""

    name: str
    connection: Connection
    #: Pipelined outbound path (jobs coalesce into ``jobs`` frames).
    sender: CoalescingSender
    #: Job ids currently placed on this node.
    pending: Set[int] = field(default_factory=set)
    #: ``live`` -> ``draining`` (leave announced) -> ``dead``/``left``.
    state: str = "live"


@dataclass
class _ClusterJob:
    """One placed-but-unanswered request."""

    job_id: int
    kind: str  # "pairs" | "graph"
    modulus: int
    payload: object  # pairs list or graph payload dict
    tenant: str
    weight: int
    slo: str
    deadline_ms: Optional[float]
    priority: int
    client: Connection
    #: Pipelined answer path of the submitting client's connection
    #: (results coalesce into ``results`` frames).
    client_sender: CoalescingSender
    client_id: object
    submitted_at: float
    node: str = ""
    retries: int = 0


class Router:
    """The multi-node serving fleet's placement and fault-tolerance brain.

    Use as an async context manager or call :meth:`start` /
    :meth:`close`::

        async with Router(EngineSpec(backend="r4csa-lut")) as router:
            print(router.port)          # workers and clients dial this
            await asyncio.sleep(forever)
    """

    def __init__(
        self,
        spec: Optional[EngineSpec] = None,
        config: Optional[RouterConfig] = None,
        slo_catalog: Optional[SloCatalog] = None,
    ) -> None:
        self.spec = (spec or EngineSpec()).validate()
        self.config = config or RouterConfig()
        self.slo_catalog = slo_catalog or SloCatalog()
        self.metrics = ClusterMetrics()
        self.limiter = TenantRateLimiter(
            rate_per_tenant=self.config.rate_per_tenant,
            burst_per_tenant=self.config.burst_per_tenant,
        )
        self._ring = HashRing()
        self._workers: Dict[str, _WorkerSession] = {}
        self._jobs: Dict[int, _ClusterJob] = {}
        self._job_ids = itertools.count()
        self._server: Optional[asyncio.AbstractServer] = None
        self._monitor: Optional[asyncio.Task] = None
        self._handlers: Set[asyncio.Task] = set()
        self._closing = False
        self.port: int = self.config.port

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "Router":
        """Bind the listen socket and start the liveness monitor."""
        if self._server is not None:
            return self
        self._closing = False
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics.start()
        self._monitor = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )
        return self

    async def close(self) -> None:
        """Stop accepting, fail in-flight jobs, shut every peer down."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        for job in list(self._jobs.values()):
            self.metrics.failed += 1
            await self._answer_error(
                job,
                ServiceError("router closed before the job completed"),
                retryable=False,
            )
        self._jobs.clear()
        for session in list(self._workers.values()):
            session.sender.close()
            if session.state in ("live", "draining"):
                try:
                    await session.connection.send({"type": "shutdown"})
                except (ConnectionError, OSError):
                    pass
            await session.connection.close()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    async def __aenter__(self) -> "Router":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def live_nodes(self) -> List[str]:
        """Names of nodes currently accepting placements."""
        return sorted(
            name
            for name, session in self._workers.items()
            if session.state == "live"
        )

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = Connection(
            reader, writer, max_frame_bytes=self.config.max_frame_bytes
        )
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(connection)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _serve_connection(self, connection: Connection) -> None:
        """Read frames until the peer identifies itself, then delegate.

        Pre-registration protocol errors and unexpected types get a
        structured error answer and the connection keeps reading — a
        peer may retry its hello without redialing.
        """
        try:
            while True:
                try:
                    message = await connection.receive()
                except ProtocolError as error:
                    await self._answer_protocol_error(connection, None, error)
                    continue
                if message is None:
                    return
                kind = message["type"]
                if kind == "hello":
                    await connection.send(
                        {
                            "type": "welcome",
                            "role": "client",
                            "slo_classes": self.slo_catalog.as_dict(),
                            "nodes": self.live_nodes,
                        }
                    )
                    await self._serve_client(connection)
                    return
                if kind == "join":
                    await self._serve_worker(connection, message)
                    return
                await self._answer_protocol_error(
                    connection,
                    message.get("id"),
                    ProtocolError(
                        f"connection must open with 'hello' or 'join', "
                        f"got {kind!r}"
                    ),
                )
        except (ConnectionError, OSError):
            return
        finally:
            await connection.close()

    async def _answer_protocol_error(
        self, connection: Connection, client_id: object, error: ProtocolError
    ) -> None:
        """The structured answer that replaces dropping the connection."""
        self.metrics.protocol_errors += 1
        try:
            await connection.send(
                {
                    "type": "error",
                    "id": client_id,
                    "error": "ProtocolError",
                    "message": str(error),
                    "retryable": False,
                }
            )
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    async def _serve_client(self, connection: Connection) -> None:
        sender = CoalescingSender(connection, stats=self.metrics.wire_frames)
        try:
            await self._serve_client_loop(connection, sender)
        finally:
            sender.close()

    async def _serve_client_loop(
        self, connection: Connection, sender: CoalescingSender
    ) -> None:
        while True:
            try:
                message = await connection.receive()
            except ProtocolError as error:
                await self._answer_protocol_error(connection, None, error)
                continue
            if message is None:
                return
            kind = message["type"]
            if kind == "submit":
                try:
                    await self._handle_submit(connection, sender, message)
                except ProtocolError as error:
                    await self._answer_protocol_error(
                        connection, message.get("id"), error
                    )
            elif kind == "stats":
                await connection.send(
                    {
                        "type": "result",
                        "id": message.get("id"),
                        "stats": self.describe(),
                    }
                )
            else:
                await self._answer_protocol_error(
                    connection,
                    message.get("id"),
                    ProtocolError(
                        f"unexpected {kind!r} frame on a client connection"
                    ),
                )

    @staticmethod
    def _parse_submit(message: Dict[str, object]) -> Dict[str, object]:
        """Shape-check a submit frame (arithmetic checks happen on the
        worker's server, whose admission validates operand ranges)."""
        kind = message.get("kind")
        if kind not in ("pairs", "graph"):
            raise ProtocolError(
                f"submit kind must be 'pairs' or 'graph', got {kind!r}"
            )
        modulus = message.get("modulus")
        if not isinstance(modulus, int) or modulus < 2:
            raise ProtocolError(
                f"submit needs an integer modulus >= 2, got {modulus!r}"
            )
        if kind == "pairs":
            pairs = message.get("pairs")
            if isinstance(pairs, PackedInts):
                # A lazily decoded blob: its shape was validated on
                # decode, so accept it unmaterialized — the router only
                # needs its length, and forwarding it is zero-copy.
                if not pairs.is_pairs or not len(pairs):
                    raise ProtocolError(
                        "submit pairs must be a non-empty list of [a, b] "
                        "integer pairs"
                    )
            elif (
                not isinstance(pairs, list)
                or not pairs
                or not all(
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(isinstance(operand, int) for operand in pair)
                    for pair in pairs
                )
            ):
                raise ProtocolError(
                    "submit pairs must be a non-empty list of [a, b] "
                    "integer pairs"
                )
            payload: object = pairs
            weight = len(pairs)
        else:
            graph = message.get("graph")
            if not isinstance(graph, dict) or not graph.get("nodes"):
                raise ProtocolError(
                    "submit graph must be a WorkloadGraph payload with nodes"
                )
            payload = graph
            weight = len(graph["nodes"])  # type: ignore[arg-type]
        # The scheduling fields are checked here too, before any token is
        # charged: a bad value must be answered, not crash the handler.
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
        ):
            raise ProtocolError(
                f"submit deadline_ms must be a number or null, "
                f"got {deadline_ms!r}"
            )
        priority = message.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ProtocolError(
                f"submit priority must be an integer, got {priority!r}"
            )
        slo = message.get("slo")
        if slo is not None and not isinstance(slo, str):
            raise ProtocolError(
                f"submit slo must be a string or null, got {slo!r}"
            )
        return {
            "kind": kind,
            "modulus": modulus,
            "payload": payload,
            "weight": weight,
        }

    async def _handle_submit(
        self,
        connection: Connection,
        sender: CoalescingSender,
        message: Dict[str, object],
    ) -> None:
        parsed = self._parse_submit(message)
        tenant = str(message.get("tenant", "default"))
        try:
            slo = self.slo_catalog.resolve(message.get("slo"))  # type: ignore[arg-type]
        except ConfigurationError as error:
            raise ProtocolError(str(error)) from None
        if not self.limiter.allow(tenant, float(parsed["weight"])):  # type: ignore[arg-type]
            self.metrics.rate_limited += 1
            await connection.send(
                {
                    "type": "error",
                    "id": message.get("id"),
                    "error": "AdmissionError",
                    "message": (
                        f"tenant {tenant!r} exceeded its rate limit "
                        f"({self.limiter.rate_per_tenant}/s)"
                    ),
                    "retryable": True,
                }
            )
            return
        deadline = message.get("deadline_ms", slo.deadline_ms)
        job = _ClusterJob(
            job_id=next(self._job_ids),
            kind=str(parsed["kind"]),
            modulus=int(parsed["modulus"]),  # type: ignore[arg-type]
            payload=parsed["payload"],
            tenant=tenant,
            weight=int(parsed["weight"]),  # type: ignore[arg-type]
            slo=slo.name,
            deadline_ms=None if deadline is None else float(deadline),  # type: ignore[arg-type]
            priority=int(message.get("priority", slo.priority)),  # type: ignore[arg-type]
            client=connection,
            client_sender=sender,
            client_id=message.get("id"),
            submitted_at=time.monotonic(),
        )
        self.metrics.submitted += 1
        self._jobs[job.job_id] = job
        await self._place(job)

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def _candidates(self, job: _ClusterJob, exclude: Set[str]) -> List[str]:
        """Replica owners of the job's modulus, live and not excluded.

        Falls back to *any* live node before giving up: losing every
        replica owner should degrade affinity, not availability.
        """
        owners = self._ring.nodes_for(job.modulus, self.config.replication)
        live = [
            name
            for name in owners
            if name not in exclude
            and self._workers.get(name) is not None
            and self._workers[name].state == "live"
        ]
        if live:
            return live
        return [
            name
            for name, session in sorted(self._workers.items())
            if session.state == "live" and name not in exclude
        ]

    async def _place(self, job: _ClusterJob, exclude: Optional[Set[str]] = None) -> None:
        """Queue one job on the least-loaded live replica of its modulus.

        Dispatch is *pipelined*: the job lands on the chosen node's
        :class:`CoalescingSender` outbox and this coroutine returns
        without waiting for the socket, so the submit path keeps
        decoding the next request while earlier jobs are still being
        written — and jobs queued behind one in-flight write coalesce
        into a single multi-job frame.  A socket that dies under the
        queue surfaces through the sender's error hook as a node loss,
        which re-dispatches everything pending on the node through the
        existing orphan machinery — the failure path that used to live
        here, minus the blocking.
        """
        exclude = set(exclude or ())
        candidates = self._candidates(job, exclude)
        if not candidates:
            candidates = self._candidates(job, set())
        if not candidates:
            self._jobs.pop(job.job_id, None)
            self.metrics.failed += 1
            await self._answer_error(
                job,
                WorkerCrashError("no live cluster nodes to place on"),
                retryable=True,
            )
            return
        home = candidates[0]
        chosen = min(
            candidates,
            key=lambda name: (self.metrics.node(name).inflight, name),
        )
        session = self._workers[chosen]
        node_metrics = self.metrics.node(chosen)
        job.node = chosen
        session.pending.add(job.job_id)
        node_metrics.dispatched += 1
        node_metrics.pairs += job.weight
        if chosen != home:
            node_metrics.replica_placements += 1
        if job.retries:
            node_metrics.redispatched += 1
        session.sender.enqueue(
            {
                "type": "job",
                "id": job.job_id,
                "kind": job.kind,
                "modulus": job.modulus,
                "payload": job.payload,
                "tenant": job.tenant,
                "priority": job.priority,
                "deadline_ms": job.deadline_ms,
                "slo": job.slo,
            }
        )

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    async def _serve_worker(
        self, connection: Connection, join: Dict[str, object]
    ) -> None:
        name = str(join.get("node") or f"node@{connection.peer}")
        if name in self._workers and self._workers[name].state in (
            "live",
            "draining",
        ):
            await self._answer_protocol_error(
                connection,
                None,
                ProtocolError(f"node name {name!r} is already joined"),
            )
            return
        session = _WorkerSession(
            name=name,
            connection=connection,
            sender=CoalescingSender(
                connection,
                on_error=lambda error, _name=name: self._lose_node(
                    _name, reason="send failed"
                ),
                stats=self.metrics.wire_frames,
            ),
        )
        # The welcome goes out *before* the node is registered for
        # placement, so it is the first frame the worker reads: no job
        # frame can be queued ahead of it.
        await connection.send(
            {
                "type": "welcome",
                "role": "worker",
                "node": name,
                "engine_spec": self.spec.as_dict(),
                "heartbeat_interval_s": self.config.heartbeat_interval_s,
                "slo_classes": self.slo_catalog.as_dict(),
            }
        )
        self._workers[name] = session
        self._ring.add(name)
        node_metrics = self.metrics.node(name)
        node_metrics.state = "live"
        node_metrics.record_heartbeat({})
        try:
            while True:
                try:
                    message = await connection.receive()
                except ProtocolError as error:
                    await self._answer_protocol_error(connection, None, error)
                    continue
                if message is None:
                    break
                kind = message["type"]
                if kind == "heartbeat":
                    node_metrics.record_heartbeat(
                        dict(message.get("metrics") or {})  # type: ignore[arg-type]
                    )
                elif kind == "result":
                    await self._handle_worker_result(session, message)
                elif kind == "results":
                    # A coalesced frame: several results that completed
                    # within one of the worker's flush windows.
                    for entry in message.get("results") or ():  # type: ignore[union-attr]
                        if isinstance(entry, dict):
                            await self._handle_worker_result(session, entry)
                elif kind == "error":
                    await self._handle_worker_error(session, message)
                elif kind == "leave":
                    await self._start_drain(session)
                else:
                    await self._answer_protocol_error(
                        connection,
                        message.get("id"),
                        ProtocolError(
                            f"unexpected {kind!r} frame on a worker connection"
                        ),
                    )
        finally:
            if session.state in ("live", "draining"):
                await self._lose_node(name, reason="connection lost")

    async def _handle_worker_result(
        self, session: _WorkerSession, message: Dict[str, object]
    ) -> None:
        job_id = message.get("id")
        session.pending.discard(job_id)  # type: ignore[arg-type]
        job = self._jobs.pop(job_id, None)  # type: ignore[arg-type]
        if job is None:
            # A re-dispatched job answered twice (the "dead" node had
            # already replied): first answer won, drop the duplicate.
            await self._maybe_finish_drain(session)
            return
        latency_s = time.monotonic() - job.submitted_at
        node_metrics = self.metrics.node(session.name)
        node_metrics.completed += 1
        node_metrics.latency.record(latency_s)
        self.metrics.record_completion(job.tenant, job.slo, latency_s)
        response = dict(message)
        response["id"] = job.client_id
        response["node"] = session.name
        response["slo"] = job.slo
        response["router_latency_ms"] = latency_s * 1e3
        # Pipelined fan-back: answers queued while one write is in
        # flight coalesce into a single multi-result frame.  A dead
        # client breaks the sender silently — the work still counted.
        job.client_sender.enqueue(response)
        await self._maybe_finish_drain(session)

    async def _handle_worker_error(
        self, session: _WorkerSession, message: Dict[str, object]
    ) -> None:
        job_id = message.get("id")
        session.pending.discard(job_id)  # type: ignore[arg-type]
        job = self._jobs.get(job_id)  # type: ignore[arg-type]
        if job is None:
            await self._maybe_finish_drain(session)
            return
        retryable = bool(message.get("retryable"))
        if retryable and job.retries < self.config.max_retries and len(
            self.live_nodes
        ) > 1:
            # Worker-side overload (its admission control pushed back):
            # try a different replica before bothering the client.
            job.retries += 1
            self.metrics.redispatches += 1
            self.metrics.node(session.name).handed_off += 1
            await self._place(job, exclude={session.name})
            await self._maybe_finish_drain(session)
            return
        self._jobs.pop(job.job_id, None)
        self.metrics.failed += 1
        self.metrics.node(session.name).failed += 1
        response = dict(message)
        response["id"] = job.client_id
        response["node"] = session.name
        try:
            await job.client.send(response)
        except (ConnectionError, OSError):
            pass
        await self._maybe_finish_drain(session)

    async def _start_drain(self, session: _WorkerSession) -> None:
        """Graceful leave: stop placing, let in-flight work finish."""
        if session.state != "live":
            return
        session.state = "draining"
        self.metrics.node(session.name).state = "draining"
        self._ring.remove(session.name)
        await self._maybe_finish_drain(session)

    async def _maybe_finish_drain(self, session: _WorkerSession) -> None:
        if session.state != "draining" or session.pending:
            return
        session.state = "left"
        self.metrics.node(session.name).state = "left"
        try:
            await session.connection.send({"type": "bye"})
        except (ConnectionError, OSError):  # pragma: no cover - worker gone
            pass

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #
    async def _lose_node(self, name: str, reason: str) -> None:
        """A node died: deregister it and re-dispatch its in-flight jobs."""
        session = self._workers.get(name)
        if session is None or session.state in ("dead", "left"):
            return
        session.state = "dead"
        session.sender.close()
        self.metrics.lost_nodes += 1
        node_metrics = self.metrics.node(name)
        node_metrics.state = "dead"
        self._ring.remove(name)
        await session.connection.close()
        orphans = sorted(session.pending)
        session.pending.clear()
        for job_id in orphans:
            job = self._jobs.get(job_id)
            if job is None:
                continue
            node_metrics.handed_off += 1
            job.retries += 1
            if job.retries > self.config.max_retries:
                self._jobs.pop(job_id, None)
                self.metrics.failed += 1
                await self._answer_error(
                    job,
                    WorkerCrashError(
                        f"job {job_id} lost node {name!r} ({reason}) "
                        f"{job.retries} times; giving up"
                    ),
                    retryable=False,
                )
                continue
            self.metrics.redispatches += 1
            await self._place(job, exclude={name})

    async def _answer_error(
        self, job: _ClusterJob, error: ReproError, retryable: bool
    ) -> None:
        try:
            await job.client.send(
                {
                    "type": "error",
                    "id": job.client_id,
                    "error": type(error).__name__,
                    "message": str(error),
                    "retryable": retryable,
                }
            )
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass

    async def _monitor_loop(self) -> None:
        """Declare nodes with stale heartbeats dead (wedged, not killed:
        killed nodes are caught faster by their connection dropping)."""
        while True:
            await asyncio.sleep(self.config.monitor_interval_s)
            now = time.monotonic()
            for name in list(self._workers):
                session = self._workers[name]
                if session.state not in ("live", "draining"):
                    continue
                node_metrics = self.metrics.node(name)
                seen = node_metrics.last_heartbeat_at
                if seen is not None and (
                    now - seen > self.config.heartbeat_timeout_s
                ):
                    await self._lose_node(name, reason="heartbeat timeout")

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def pending_by_node(self) -> Dict[str, int]:
        """In-flight job counts per connected node (placement view)."""
        return {
            name: len(session.pending)
            for name, session in self._workers.items()
        }

    def describe(self) -> Dict[str, object]:
        """The cluster rollup ``stats`` frames answer with."""
        return {
            **self.metrics.rollup(),
            "backend": self.spec.backend,
            "spec": self.spec.as_dict(),
            "replication": self.config.replication,
            "slo_classes": self.slo_catalog.as_dict(),
            "rate_limiter": self.limiter.describe(),
            "ring_nodes": self._ring.nodes,
        }

    def __repr__(self) -> str:
        return (
            f"Router(backend={self.spec.backend!r}, port={self.port}, "
            f"nodes={len(self._workers)})"
        )
