"""A cluster worker node: one serving :class:`Server` behind a socket.

A :class:`WorkerNode` dials the router, joins, receives the fleet's
:class:`~repro.engine.EngineSpec` in the welcome frame and builds its
serving stack from it — every node runs an identical engine, which is
what makes cross-node re-dispatch bit-identical.  Job frames are fed to
the node's :class:`~repro.service.server.Server` (inline, on the node's
event loop: one process per node is the fleet's unit of parallelism) with
the tenant, priority and deadline the router resolved from the request's SLO
class, so the fleet's SLO policy rides the serving layer's existing
admission control and deadline expiry.

Failures are answers, not silences: an exception from the server becomes
an ``error`` frame carrying the exception class name and a ``retryable``
flag — :class:`~repro.errors.AdmissionError` (this node's queue is full)
is retryable, so the router re-places the job on another replica instead
of bouncing the overload to the client.

A heartbeat task piggybacks ``Server.metrics_summary()`` on each beat,
which is how :class:`~repro.cluster.metrics.ClusterMetrics` aggregates
per-node shard metrics through the router.  :meth:`WorkerNode.drain`
implements graceful leave: announce ``leave``, finish in-flight work,
wait for the router's ``bye``, stop the server.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    CoalescingSender,
    Connection,
    PackedInts,
)
from repro.engine import EngineSpec
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
)
from repro.service import Server, ServerConfig
from repro.workloads import WorkloadGraph

__all__ = ["WorkerConfig", "WorkerNode", "run_worker"]


@dataclass(frozen=True)
class WorkerConfig:
    """Tunables of one worker node."""

    #: Node name in the fleet (defaults to ``worker-<pid>``).
    name: Optional[str] = None
    #: Admission cap of this node's server (queued + executing).
    max_pending: int = 4096
    #: Per-dispatch batch cap of this node's server.
    max_batch: int = 64
    #: Frame size limit (must match the router's).
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES


class WorkerNode:
    """One fleet node: joins a router, serves jobs, heartbeats.

    Typical lifecycle (the CLI's ``repro cluster worker`` does this)::

        node = WorkerNode("127.0.0.1", router_port)
        await node.start()          # join + build the server
        await node.wait()           # serve until bye/shutdown
        await node.stop()
    """

    def __init__(
        self,
        host: str,
        port: int,
        config: Optional[WorkerConfig] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config or WorkerConfig()
        self.name = self.config.name or f"worker-{os.getpid()}"
        self.server: Optional[Server] = None
        self._connection: Optional[Connection] = None
        self._sender: Optional[CoalescingSender] = None
        self._heartbeat_interval_s = 1.0
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._jobs: Set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "WorkerNode":
        """Dial the router, join, build the engine the welcome names."""
        if self._connection is not None:
            return self
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._connection = Connection(
            reader, writer, max_frame_bytes=self.config.max_frame_bytes
        )
        await self._connection.send({"type": "join", "node": self.name})
        welcome = await self._connection.receive()
        if welcome is not None and welcome["type"] == "error":
            raise ProtocolError(
                str(welcome.get("message", "router rejected the join"))
            )
        if welcome is None or welcome["type"] != "welcome":
            got = None if welcome is None else welcome["type"]
            raise ProtocolError(
                f"router answered join with {got!r}, expected 'welcome'"
            )
        spec = EngineSpec.from_dict(dict(welcome["engine_spec"]))  # type: ignore[arg-type]
        self._heartbeat_interval_s = float(
            welcome.get("heartbeat_interval_s", 1.0)  # type: ignore[arg-type]
        )
        self._sender = CoalescingSender(self._connection)
        self.server = Server(
            engine=spec.build(),
            config=ServerConfig(
                max_pending=self.config.max_pending,
                max_batch=self.config.max_batch,
            ),
        )
        await self.server.start()
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._drained = asyncio.Event()
        self._reader_task = loop.create_task(self._read_loop())
        self._heartbeat_task = loop.create_task(self._heartbeat_loop())
        return self

    async def wait(self) -> None:
        """Block until the router releases this node (bye/shutdown/EOF)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Tear the node down (idempotent; does not wait for drain)."""
        self._stopped.set()
        for task in (self._heartbeat_task, self._reader_task):
            if task is not None:
                task.cancel()
        for task in (self._heartbeat_task, self._reader_task):
            if task is not None:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._heartbeat_task = self._reader_task = None
        if self._jobs:
            await asyncio.gather(*list(self._jobs), return_exceptions=True)
        if self._sender is not None:
            await self._sender.drain()
            self._sender.close()
            self._sender = None
        if self._connection is not None:
            await self._connection.close()
            self._connection = None
        if self.server is not None:
            await self.server.stop(drain=False)
            self.server = None

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful leave: finish in-flight work, wait for ``bye``."""
        if self._connection is None:
            return
        await self._connection.send({"type": "leave", "node": self.name})
        try:
            await asyncio.wait_for(self._drained.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass
        await self.stop()

    async def __aenter__(self) -> "WorkerNode":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    async def _read_loop(self) -> None:
        assert self._connection is not None
        connection = self._connection
        while True:
            try:
                message = await connection.receive()
            except ProtocolError:
                # A malformed frame *from the router* would be a bug,
                # not traffic; skip it and keep serving.
                continue
            except (ConnectionError, OSError):
                break
            if message is None:
                break
            kind = message["type"]
            if kind == "job":
                self._spawn_job(message)
            elif kind == "jobs":
                # Coalesced multi-job frame: each entry is a
                # complete job message; fan them out exactly as if they
                # had arrived one frame apiece.
                for entry in message.get("jobs") or ():
                    if isinstance(entry, dict):
                        self._spawn_job(entry)
            elif kind == "bye":
                self._drained.set()
                break
            elif kind == "shutdown":
                break
            elif kind == "error":
                continue  # router rejected one of our frames; nothing to do
        self._stopped.set()
        self._drained.set()

    def _spawn_job(self, message: Dict[str, object]) -> None:
        task = asyncio.get_running_loop().create_task(self._run_job(message))
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)

    async def _run_job(self, message: Dict[str, object]) -> None:
        """Execute one placed job on the node's server, answer the router."""
        assert self.server is not None and self._connection is not None
        job_id = message.get("id")
        try:
            kind = message["kind"]
            modulus = int(message["modulus"])  # type: ignore[arg-type]
            tenant = str(message.get("tenant", "default"))
            priority = int(message.get("priority", 0))  # type: ignore[arg-type]
            deadline_ms = message.get("deadline_ms")
            deadline = None if deadline_ms is None else float(deadline_ms)  # type: ignore[arg-type]
            if kind == "pairs":
                payload = message["payload"]
                pairs = (
                    payload.topairs()
                    if isinstance(payload, PackedInts)
                    else [(int(a), int(b)) for a, b in payload]  # type: ignore[union-attr]
                )
                response = await self.server.multiply_batch(
                    pairs,
                    modulus=modulus,
                    tenant=tenant,
                    priority=priority,
                    deadline_ms=deadline,
                )
            elif kind == "graph":
                graph = WorkloadGraph.from_payload(dict(message["payload"]))  # type: ignore[arg-type]
                response = await self.server.submit_graph(
                    graph,
                    modulus=modulus,
                    tenant=tenant,
                    priority=priority,
                    deadline_ms=deadline,
                )
            else:
                raise ProtocolError(f"unknown job kind {kind!r}")
        except ReproError as error:
            await self._answer(
                {
                    "type": "error",
                    "id": job_id,
                    "error": type(error).__name__,
                    "message": str(error),
                    # A full queue on *this* node is the router's cue to
                    # try another replica, not the client's problem.
                    "retryable": isinstance(error, AdmissionError),
                }
            )
            return
        result = {
            "type": "result",
            "id": job_id,
            "values": [int(v) for v in response.values],
            "kind": response.kind,
            "backend": response.backend,
            "modulus": response.modulus,
            "batched_pairs": response.batched_pairs,
            "modeled_cycles": response.modeled_cycles,
            "latency_ms": response.latency_ms,
            "queue_ms": response.queue_ms,
        }
        # Results ride the coalescing sender so answers completing within
        # one flush window travel as a single multi-result frame.
        if self._sender is not None and not self._sender.broken:
            self._sender.enqueue(result)
        else:
            await self._answer(result)

    async def _answer(self, message: Dict[str, object]) -> None:
        if self._connection is None:
            return
        try:
            await self._connection.send(message)
        except (ConnectionError, OSError):  # pragma: no cover - router gone
            self._stopped.set()

    async def _heartbeat_loop(self) -> None:
        """Beat liveness + this node's full serving metrics snapshot."""
        while not self._stopped.is_set():
            await asyncio.sleep(self._heartbeat_interval_s)
            if self.server is None:
                continue
            await self._answer(
                {
                    "type": "heartbeat",
                    "node": self.name,
                    "metrics": self.server.metrics_summary(),
                }
            )

    def __repr__(self) -> str:
        return f"WorkerNode(name={self.name!r}, router={self.host}:{self.port})"


def run_worker(host: str, port: int, name: Optional[str] = None) -> None:
    """Run one worker node to completion (the sync CLI/subprocess entry).

    Returns when the router says ``bye``/``shutdown`` or the connection
    drops; crashes (SIGKILL) are the router's failure-detection problem.
    """

    async def _serve() -> None:
        node = WorkerNode(host, port, WorkerConfig(name=name))
        await node.start()
        try:
            await node.wait()
        finally:
            await node.stop()

    asyncio.run(_serve())
