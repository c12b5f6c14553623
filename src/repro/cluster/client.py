"""The cluster's client side: submit batches and graphs over the wire.

:class:`ClusterClient` is the network twin of the in-process
:class:`~repro.service.client.Client`: it binds a tenant and a default
SLO class, speaks the framed protocol to a router and exposes the same
awaitable surface (``multiply_batch``, ``submit_graph``), so call sites
move from one server to a fleet by changing the constructor.

One background reader task resolves responses to the futures of their
request ids, which makes the client safely concurrent: any number of
tasks may have requests in flight on one connection.  Structured
``error`` frames are raised as their original exception classes —
:class:`~repro.errors.AdmissionError` from a rate-limited tenant,
:class:`~repro.errors.DeadlineError` from a missed SLO deadline,
:class:`~repro.errors.WorkerCrashError` from a job that out-died its
retries — so cluster callers handle the very same exceptions in-process
callers do.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    Connection,
    PackedInts,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    ModulusError,
    OperandRangeError,
    ProtocolError,
    ReproError,
    ServiceError,
    WorkerCrashError,
)
from repro.workloads import WorkloadGraph

__all__ = ["ClusterClient", "ClusterResponse"]

#: Error-frame names mapped back to the exception classes they started
#: as on the worker/router side (anything unknown degrades to
#: :class:`ServiceError`, never to a swallowed string).
_ERROR_CLASSES: Dict[str, Type[ReproError]] = {
    "AdmissionError": AdmissionError,
    "ConfigurationError": ConfigurationError,
    "DeadlineError": DeadlineError,
    "ModulusError": ModulusError,
    "OperandRangeError": OperandRangeError,
    "ProtocolError": ProtocolError,
    "WorkerCrashError": WorkerCrashError,
}


@dataclass(frozen=True)
class ClusterResponse:
    """What one cluster request resolves to (the fleet's ``Response``)."""

    #: Products, in request order.
    values: Tuple[int, ...]
    kind: str
    backend: str
    modulus: int
    #: Node that executed the request.
    node: str
    #: SLO class the router resolved for the request.
    slo: str
    batched_pairs: int
    modeled_cycles: Optional[int]
    #: Worker-server-observed latency (queue + execute on the node).
    latency_ms: float
    queue_ms: float
    #: Submission-to-response latency as the router observed it
    #: (placement, network and any re-dispatch included).
    router_latency_ms: float

    @property
    def value(self) -> int:
        """The single product (raises unless exactly one)."""
        if len(self.values) != 1:
            raise ConfigurationError(
                f"response carries {len(self.values)} values; use .values"
            )
        return self.values[0]


class ClusterClient:
    """One tenant's connection to a cluster router.

    ::

        async with ClusterClient("127.0.0.1", port, tenant="acme") as c:
            r = await c.multiply_batch([(a, b)], modulus=p, slo="gold")
            products = r.values
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        slo: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        wire: int = 2,
    ) -> None:
        # ``wire`` has one legal value.  It stays only because
        # ``perfbench/serving.py`` passes ``wire=2`` and records
        # :attr:`wire`.
        if wire != 2:
            raise ConfigurationError(f"wire must be 2, got {wire}")
        self.host = host
        self.port = port
        self.tenant = tenant
        #: Default SLO class name for requests that do not name one
        #: (``None`` = the router catalog's loosest tier).
        self.slo = slo
        self.max_frame_bytes = max_frame_bytes
        #: The wire format version (always 2).
        self.wire = wire
        self._connection: Optional[Connection] = None
        self._reader: Optional[asyncio.Task] = None
        self._ids = itertools.count()
        self._futures: Dict[int, asyncio.Future] = {}
        #: The SLO catalog the router advertised in its welcome frame.
        self.slo_classes: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def connect(self) -> "ClusterClient":
        """Dial the router and complete the hello/welcome handshake."""
        if self._connection is not None:
            return self
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._connection = Connection(
            reader, writer, max_frame_bytes=self.max_frame_bytes
        )
        await self._connection.send({"type": "hello", "tenant": self.tenant})
        welcome = await self._connection.receive()
        if welcome is None or welcome["type"] != "welcome":
            got = None if welcome is None else welcome["type"]
            raise ProtocolError(
                f"router answered hello with {got!r}, expected 'welcome'"
            )
        self.slo_classes = dict(welcome.get("slo_classes") or {})  # type: ignore[arg-type]
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        return self

    async def close(self) -> None:
        """Drop the connection; unresolved futures fail with an error."""
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except asyncio.CancelledError:
                pass
            self._reader = None
        if self._connection is not None:
            await self._connection.close()
            self._connection = None
        self._fail_all(ServiceError("cluster client closed"))

    async def __aenter__(self) -> "ClusterClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #
    async def multiply_batch(
        self,
        pairs: Sequence[Tuple[int, int]],
        modulus: int,
        slo: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> ClusterResponse:
        """Submit a batch of operand pairs to the fleet."""
        return await self._submit(
            {
                "kind": "pairs",
                "modulus": int(modulus),
                "pairs": [[int(a), int(b)] for a, b in pairs],
            },
            slo,
            deadline_ms,
        )

    async def submit_graph(
        self,
        graph: WorkloadGraph,
        modulus: int,
        slo: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> ClusterResponse:
        """Submit an operand-carrying workload graph to the fleet."""
        return await self._submit(
            {
                "kind": "graph",
                "modulus": int(modulus),
                "graph": graph.to_payload(),
            },
            slo,
            deadline_ms,
        )

    async def stats(self) -> Dict[str, object]:
        """The router's cluster metrics rollup."""
        if self._connection is None:
            raise ServiceError("cluster client is not connected")
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        await self._connection.send({"type": "stats", "id": request_id})
        message = await future
        return dict(message.get("stats") or {})

    async def _submit(
        self,
        body: Dict[str, object],
        slo: Optional[str],
        deadline_ms: Optional[float],
    ) -> ClusterResponse:
        if self._connection is None:
            raise ServiceError("cluster client is not connected")
        request_id = next(self._ids)
        message: Dict[str, object] = {
            "type": "submit",
            "id": request_id,
            "tenant": self.tenant,
            **body,
        }
        resolved_slo = slo if slo is not None else self.slo
        if resolved_slo is not None:
            message["slo"] = resolved_slo
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        started = time.monotonic()
        await self._connection.send(message)
        reply = await future
        values = reply.get("values") or ()
        return ClusterResponse(
            values=(
                tuple(values.tolist())
                if isinstance(values, PackedInts)
                else tuple(int(v) for v in values)
            ),
            kind=str(reply.get("kind", "pairs")),
            backend=str(reply.get("backend", "")),
            modulus=int(reply.get("modulus", body["modulus"])),  # type: ignore[arg-type]
            node=str(reply.get("node", "")),
            slo=str(reply.get("slo", "")),
            batched_pairs=int(reply.get("batched_pairs", 0)),  # type: ignore[arg-type]
            modeled_cycles=(
                None
                if reply.get("modeled_cycles") is None
                else int(reply["modeled_cycles"])  # type: ignore[arg-type]
            ),
            latency_ms=float(reply.get("latency_ms", 0.0)),  # type: ignore[arg-type]
            queue_ms=float(reply.get("queue_ms", 0.0)),  # type: ignore[arg-type]
            router_latency_ms=float(
                reply.get(
                    "router_latency_ms", (time.monotonic() - started) * 1e3
                )  # type: ignore[arg-type]
            ),
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    async def _read_loop(self) -> None:
        assert self._connection is not None
        connection = self._connection
        while True:
            try:
                message = await connection.receive()
            except ProtocolError as error:
                # A malformed frame from the router: fail everything in
                # flight (ids may be unrecoverable) but keep reading.
                self._fail_all(error)
                continue
            except (ConnectionError, OSError):
                break
            if message is None:
                break
            if message["type"] == "results":
                # Coalesced multi-result frame: resolve each
                # bundled answer exactly as if it arrived alone.
                for entry in message.get("results") or ():
                    if isinstance(entry, dict):
                        self._resolve(entry)
            else:
                self._resolve(message)
        self._fail_all(
            ServiceError("cluster connection closed with requests in flight")
        )

    def _resolve(self, message: Dict[str, object]) -> None:
        """Resolve one response frame to the future of its request id."""
        request_id = message.get("id")
        future = self._futures.pop(request_id, None)  # type: ignore[arg-type]
        if future is None or future.done():
            return
        if message["type"] == "error":
            name = str(message.get("error", "ServiceError"))
            exc_class = _ERROR_CLASSES.get(name, ServiceError)
            future.set_exception(exc_class(str(message.get("message", name))))
        else:
            future.set_result(message)

    def _fail_all(self, error: ReproError) -> None:
        pending: List[asyncio.Future] = [
            f for f in self._futures.values() if not f.done()
        ]
        self._futures.clear()
        for future in pending:
            future.set_exception(error)

    def __repr__(self) -> str:
        return (
            f"ClusterClient(router={self.host}:{self.port}, "
            f"tenant={self.tenant!r}, slo={self.slo!r})"
        )
