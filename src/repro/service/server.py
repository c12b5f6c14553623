"""The asyncio serving layer: admission, batching, fairness, dispatch.

:class:`Server` turns the synchronous, single-caller
:class:`~repro.engine.Engine` into an online service:

* **submission queues** — every request (single multiply, operand batch,
  or operand-carrying :class:`~repro.workloads.graph.WorkloadGraph`)
  enqueues per tenant and resolves an ``asyncio`` future;
* **admission control / backpressure** — global and per-tenant pending
  caps reject new work with :class:`AdmissionError` instead of letting the
  queue grow without bound;
* **self-clocked batching** — the dispatcher never waits on a timer: each
  time it runs it takes everything queued (up to ``max_batch`` pairs) and
  dispatches it at once, one :meth:`~repro.engine.Engine.multiply_batch`
  call per modulus.  Requests that arrive while a batch executes queue up
  and form the next batch, so batches grow with load and a lone request
  on an idle server waits for nothing.  Jobs whose deadline passed while
  queued expire instead of executing;
* **per-tenant fairness** — the collector drains tenant queues round-robin
  so one chatty tenant cannot starve the rest;
* **metrics** — latency percentiles, throughput, batch sizes, per-tenant
  completions and the engine's context-cache counters
  (:meth:`Server.metrics_summary`).

*Where* a formed batch executes is pluggable (the :class:`Executor`
seam): by default batches run inline on the event loop — zero overhead,
one core — while ``workers=N`` (or an explicit
:class:`~repro.service.pool.PoolExecutor`) shards them across N worker
processes with per-shard warm context caches, escaping the GIL.  Either
way the serving value starts with the coalescing — many tiny requests
become few hot, context-cached batch calls.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine import Engine, EngineSpec
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    OperandRangeError,
    ServiceError,
)
from repro.service.executor import Executor, InlineExecutor
from repro.service.metrics import ServiceMetrics
from repro.workloads.graph import WorkloadGraph

__all__ = ["ServerConfig", "Response", "Server"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving layer."""

    #: Operand pairs coalesced into one ``multiply_batch`` call at most
    #: (a single request larger than this still runs, alone).
    max_batch: int = 64
    #: Global admission limit: queued requests beyond this are rejected.
    max_pending: int = 1024
    #: Per-tenant admission limit (fairness at the door).
    max_pending_per_tenant: int = 256
    #: Default per-request deadline (``None`` = no deadline).
    default_deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_pending < 1 or self.max_pending_per_tenant < 1:
            raise ConfigurationError("pending limits must be positive")


@dataclass(frozen=True)
class Response:
    """What a completed request resolves to."""

    #: Products, in request order (one for a single multiply; the sink
    #: products for a graph).
    values: Tuple[int, ...]
    kind: str
    backend: str
    modulus: int
    tenant: str
    #: Operand pairs that shared this request's ``multiply_batch`` call
    #: (graph requests: the graph's node count).
    batched_pairs: int
    #: Analytic hardware cycles of this request's share (``None`` without
    #: a cycle model).
    modeled_cycles: Optional[int]
    #: Queue wait plus execution, as observed by the server.
    latency_ms: float
    queue_ms: float
    #: Pool shard that executed the request (``None`` for inline execution).
    shard: Optional[int] = None

    @property
    def value(self) -> int:
        """The single product (raises unless exactly one)."""
        if len(self.values) != 1:
            raise ConfigurationError(
                f"response carries {len(self.values)} values; use .values"
            )
        return self.values[0]


@dataclass
class _Job:
    kind: str  # "pairs" | "graph"
    payload: object
    modulus: Optional[int]
    tenant: str
    priority: int
    deadline: Optional[float]  # absolute loop time, None = none
    enqueued_at: float
    future: "asyncio.Future[Response]"
    pairs: int  # batching weight


class Server:
    """Async serving facade over one :class:`~repro.engine.Engine`.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`::

        async with Server(backend="r4csa-lut", curve="bn254") as server:
            response = await server.multiply(3, 5)
            tree_response = await server.submit_graph(tree)

    One dispatcher task forms the batches; submissions only enqueue, so
    any number of client tasks can share a server.  Execution is the
    executor's business: the default :class:`InlineExecutor` runs batches
    on the event loop exactly like the classic single-process server,
    while ``workers=N`` shards them across N engine-owning OS processes
    (:class:`~repro.service.pool.PoolExecutor`) — same products, more
    cores.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        backend: str = EngineSpec.backend,
        curve: Optional[str] = None,
        modulus: Optional[int] = None,
        config: Optional[ServerConfig] = None,
        executor: Optional[Executor] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.engine = engine or Engine(
            backend=backend, curve=curve, modulus=modulus
        )
        if executor is not None and workers:
            raise ConfigurationError(
                "pass either executor= or workers=, not both"
            )
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        elif workers:
            from repro.service.pool import PoolExecutor

            self._executor = PoolExecutor(
                spec=self.engine.spec(), workers=workers
            )
            self._owns_executor = True
        else:
            self._executor = InlineExecutor(self.engine)
            self._owns_executor = True
        self.config = config or ServerConfig()
        self.metrics = ServiceMetrics()
        self._tenants: "OrderedDict[str, Deque[_Job]]" = OrderedDict()
        self._rr: List[str] = []
        self._pending = 0
        self._pending_by_tenant: Dict[str, int] = {}
        #: Queued jobs with a non-default priority, per tenant: lets the
        #: dispatcher take the O(1) FIFO pop in the common all-equal case.
        self._priority_pending: Dict[str, int] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight: Set[asyncio.Task] = set()
        #: Requests handed to a non-inline executor and not yet resolved
        #: (admission still counts them against ``max_pending``).
        self._executing = 0
        self._stopping = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        """Whether the dispatcher task is live."""
        return self._dispatcher is not None and not self._dispatcher.done()

    @property
    def executor(self) -> Executor:
        """The execution seam batches run through (inline or pool)."""
        return self._executor

    async def start(self) -> "Server":
        """Start the executor and the dispatcher (idempotent)."""
        if self.running:
            return self
        self._stopping = False
        self._wakeup = asyncio.Event()
        await self._executor.start()
        self.metrics.start()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the dispatcher; ``drain`` finishes queued work first."""
        if self._dispatcher is None:
            return
        self._stopping = True
        if not drain:
            for queue in self._tenants.values():
                for job in queue:
                    if not job.future.done():
                        job.future.set_exception(
                            ServiceError("server stopped before dispatch")
                        )
            self._tenants.clear()
            self._rr.clear()
            self._pending_by_tenant.clear()
            self._priority_pending.clear()
            self._pending = 0
        assert self._wakeup is not None
        self._wakeup.set()
        await self._dispatcher
        self._dispatcher = None
        if not drain:
            for task in list(self._inflight):
                task.cancel()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self.metrics.stop()
        if self._owns_executor:
            await self._executor.close()

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=exc_info[0] is None)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def multiply(
        self,
        a: int,
        b: int,
        modulus: Optional[int] = None,
        tenant: str = "default",
        priority: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> Response:
        """Submit one multiplication; resolves when its batch executes."""
        return await self._submit(
            "pairs", [(int(a), int(b))], modulus, tenant, priority,
            deadline_ms, pairs=1,
        )

    async def multiply_batch(
        self,
        pairs: Sequence[Tuple[int, int]],
        modulus: Optional[int] = None,
        tenant: str = "default",
        priority: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> Response:
        """Submit a batch of operand pairs as one request."""
        work = [(int(a), int(b)) for a, b in pairs]
        if not work:
            raise ConfigurationError("multiply_batch needs at least one pair")
        return await self._submit(
            "pairs", work, modulus, tenant, priority, deadline_ms, pairs=len(work)
        )

    async def submit_graph(
        self,
        graph: WorkloadGraph,
        modulus: Optional[int] = None,
        tenant: str = "default",
        priority: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> Response:
        """Submit an operand-carrying workload graph as one request."""
        if not graph.executable:
            raise ConfigurationError(
                f"graph {graph.name!r} is structural; the server can only "
                "execute operand-carrying graphs"
            )
        return await self._submit(
            "graph", graph, modulus, tenant, priority, deadline_ms,
            pairs=len(graph),
        )

    def _resolve_modulus(self, modulus: Optional[int]) -> int:
        """The effective modulus of a request, resolved at admission.

        Resolving here (rather than at dispatch) means requests passing
        the default explicitly coalesce with requests passing ``None``,
        and a missing modulus fails the submitting caller instead of a
        whole batch.
        """
        if modulus is not None:
            return modulus
        default = self.engine.default_modulus
        if default is None:
            from repro.errors import ModulusError

            raise ModulusError(
                "no modulus given and the server's engine has no default"
            )
        return default

    async def _submit(
        self,
        kind: str,
        payload: object,
        modulus: Optional[int],
        tenant: str,
        priority: int,
        deadline_ms: Optional[float],
        pairs: int,
    ) -> Response:
        if not self.running:
            raise ServiceError("server is not running; use 'async with Server(...)'")
        if self._stopping:
            raise ServiceError("server is stopping; submission refused")
        modulus = self._resolve_modulus(modulus)
        if kind == "pairs":
            # Validate at admission: a bad operand fails *this* caller,
            # never the other requests its batch would have coalesced with.
            for a, b in payload:  # type: ignore[union-attr]
                if not 0 <= a < modulus or not 0 <= b < modulus:
                    raise OperandRangeError(
                        f"operands must satisfy 0 <= a, b < p, got "
                        f"a={a}, b={b}, p={modulus}"
                    )
        # The admission bound covers work buffered anywhere between here
        # and completion: requests in the server's own queues plus
        # requests inside batches already handed to the executor (a pool
        # buffers jobs in worker queues; inline execution finishes before
        # the next batch forms, keeping the second term at zero).
        if self._pending + self._executing >= self.config.max_pending:
            self.metrics.rejected_requests += 1
            raise AdmissionError(
                f"server queue full ({self.config.max_pending} pending)"
            )
        if (
            self._pending_by_tenant.get(tenant, 0)
            >= self.config.max_pending_per_tenant
        ):
            self.metrics.rejected_requests += 1
            raise AdmissionError(
                f"tenant {tenant!r} queue full "
                f"({self.config.max_pending_per_tenant} pending)"
            )
        loop = asyncio.get_running_loop()
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        job = _Job(
            kind=kind,
            payload=payload,
            modulus=modulus,
            tenant=tenant,
            priority=priority,
            deadline=(
                None if deadline_ms is None else loop.time() + deadline_ms / 1e3
            ),
            enqueued_at=loop.time(),
            future=loop.create_future(),
            pairs=pairs,
        )
        if tenant not in self._tenants:
            self._tenants[tenant] = deque()
            self._rr.append(tenant)
        self._tenants[tenant].append(job)
        self._pending += 1
        self._pending_by_tenant[tenant] = (
            self._pending_by_tenant.get(tenant, 0) + 1
        )
        if priority:
            self._priority_pending[tenant] = (
                self._priority_pending.get(tenant, 0) + 1
            )
        assert self._wakeup is not None
        self._wakeup.set()
        return await job.future

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _take_ready(self) -> Optional[_Job]:
        """Pop the next job round-robin across non-empty tenant queues.

        ``_rr`` is the rotation itself: the tenant at its head serves one
        job and moves to the tail.  Within a tenant's queue the
        highest-priority job goes first (FIFO among equals); across
        tenants the rotation stays fair regardless of priorities.  A
        tenant whose queue drains is forgotten entirely (queue, rotation
        slot and pending counter), so a long-lived server visited by many
        distinct tenants never accumulates empty state and dispatch stays
        proportional to the *active* tenant count.
        """
        while self._rr:
            tenant = self._rr.pop(0)
            queue = self._tenants[tenant]
            if not queue:
                self._forget(tenant)
                continue
            if self._priority_pending.get(tenant, 0):
                best_index = 0
                best_priority = None
                for index, candidate in enumerate(queue):
                    if best_priority is None or candidate.priority > best_priority:
                        best_index, best_priority = index, candidate.priority
                job = queue[best_index]
                del queue[best_index]
            else:
                job = queue.popleft()  # all default priority: O(1) FIFO
            if job.priority:
                self._priority_pending[tenant] -= 1
            self._pending -= 1
            self._pending_by_tenant[tenant] -= 1
            if queue:
                self._rr.append(tenant)
            else:
                self._forget(tenant)
            return job
        return None

    def _forget(self, tenant: str) -> None:
        """Drop a drained tenant's queue and counters (not its metrics)."""
        del self._tenants[tenant]
        self._pending_by_tenant.pop(tenant, None)
        self._priority_pending.pop(tenant, None)

    def _push_front(self, job: _Job) -> None:
        """Return a popped job to the head of its tenant queue (unpop)."""
        if job.tenant not in self._tenants:
            self._tenants[job.tenant] = deque()
            self._rr.insert(0, job.tenant)  # stays next in the rotation
        self._tenants[job.tenant].appendleft(job)
        self._pending += 1
        self._pending_by_tenant[job.tenant] = (
            self._pending_by_tenant.get(job.tenant, 0) + 1
        )
        if job.priority:
            self._priority_pending[job.tenant] = (
                self._priority_pending.get(job.tenant, 0) + 1
            )

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            job = self._take_ready()
            if job is None:
                if self._stopping:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # Self-clocked: take what is queued now, up to the cap, and
            # go.  Work that arrives while this batch executes forms the
            # next one.
            batch = [job]
            weight = job.pairs
            while weight < self.config.max_batch:
                more = self._take_ready()
                if more is None:
                    break
                if weight + more.pairs > self.config.max_batch:
                    # Honour the cap: the job waits for the next batch.
                    self._push_front(more)
                    break
                batch.append(more)
                weight += more.pairs
            self._execute(batch)

    def _execute(self, batch: List[_Job]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Job] = []
        for job in batch:
            if job.deadline is not None and now > job.deadline:
                self.metrics.deadline_misses += 1
                if not job.future.done():
                    job.future.set_exception(
                        DeadlineError(
                            f"deadline exceeded before dispatch "
                            f"(queued {(now - job.enqueued_at) * 1e3:.2f} ms)"
                        )
                    )
                continue
            live.append(job)

        # One multiply_batch per modulus group (moduli were resolved at
        # admission, so None never splits a group); graphs run
        # level-batched.  Inline execution happens right here in the
        # dispatcher (the classic single-process behaviour); a pool
        # executor gets one task per group so the dispatcher keeps
        # forming batches while shards work.
        groups: "OrderedDict[int, List[_Job]]" = OrderedDict()
        graphs: List[_Job] = []
        for job in live:
            if job.kind == "pairs":
                groups.setdefault(job.modulus, []).append(job)
            else:
                graphs.append(job)
        if self._executor.inline:
            for modulus, jobs in groups.items():
                self._execute_pairs_group(jobs, modulus, now)
            for job in graphs:
                self._execute_graph_job(job, now)
        else:
            for modulus, jobs in groups.items():
                self._spawn(
                    self._execute_pairs_group_async(jobs, modulus, now),
                    requests=len(jobs),
                )
            for job in graphs:
                self._spawn(self._execute_graph_job_async(job, now), requests=1)

    def _spawn(self, coroutine, requests: int) -> None:
        """Track one in-flight execution task (drained by :meth:`stop`).

        ``requests`` keeps the admission bound honest while the batch is
        buffered inside the executor: the count rejoins ``_pending`` in
        spirit until every job in the group resolves.
        """
        self._executing += requests

        async def runner():
            try:
                await coroutine
            finally:
                self._executing -= requests

        task = asyncio.get_running_loop().create_task(runner())
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    @staticmethod
    def _fail_jobs(jobs: List[_Job], error: Exception) -> None:
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(error)

    # -- pairs ---------------------------------------------------------- #
    def _execute_pairs_group(
        self, jobs: List[_Job], modulus: int, now: float
    ) -> None:
        """Run one modulus group inline as a single engine batch.

        Operands were validated at admission, so a failure here is
        unexpected; if the coalesced call still fails, fall back to one
        call per request so a single poisoned job cannot fail the others.
        """
        flat: List[Tuple[int, int]] = []
        for job in jobs:
            flat.extend(job.payload)  # type: ignore[arg-type]
        try:
            result = self._executor.execute_pairs_sync(flat, modulus)
        except Exception as error:
            if len(jobs) == 1:
                self._fail_jobs(jobs, error)
                return
            for job in jobs:
                self._execute_pairs_group([job], modulus, now)
            return
        self._resolve_pairs_group(jobs, result, len(flat), now, shard=None)

    async def _execute_pairs_group_async(
        self, jobs: List[_Job], modulus: int, now: float
    ) -> None:
        """Pooled variant of :meth:`_execute_pairs_group` (same fallback)."""
        flat: List[Tuple[int, int]] = []
        for job in jobs:
            flat.extend(job.payload)  # type: ignore[arg-type]
        try:
            result, shard = await self._executor.execute_pairs(flat, modulus)
        except asyncio.CancelledError:
            self._fail_jobs(
                jobs, ServiceError("server stopped before execution finished")
            )
            raise
        except Exception as error:
            if len(jobs) == 1:
                self._fail_jobs(jobs, error)
                return
            for job in jobs:
                await self._execute_pairs_group_async([job], modulus, now)
            return
        self._resolve_pairs_group(jobs, result, len(flat), now, shard)

    def _resolve_pairs_group(
        self,
        jobs: List[_Job],
        result,
        flat_count: int,
        now: float,
        shard: Optional[int],
    ) -> None:
        """Slice one batch result back into per-job responses."""
        loop = asyncio.get_running_loop()
        self.metrics.record_batch(flat_count)
        per_pair = (
            None
            if result.modeled_cycles is None
            else result.modeled_cycles // max(flat_count, 1)
        )
        offset = 0
        finished = loop.time()
        for job in jobs:
            values = result.values[offset:offset + job.pairs]
            offset += job.pairs
            self._resolve(
                job,
                Response(
                    values=values,
                    kind="pairs",
                    backend=result.backend,
                    modulus=result.modulus,
                    tenant=job.tenant,
                    batched_pairs=flat_count,
                    modeled_cycles=(
                        None if per_pair is None else per_pair * job.pairs
                    ),
                    latency_ms=(finished - job.enqueued_at) * 1e3,
                    queue_ms=(now - job.enqueued_at) * 1e3,
                    shard=shard,
                ),
            )

    # -- graphs --------------------------------------------------------- #
    def _execute_graph_job(self, job: _Job, now: float) -> None:
        """Run one operand-carrying graph inline (level-batched)."""
        try:
            execution = self._executor.execute_graph_sync(
                job.payload, job.modulus  # type: ignore[arg-type]
            )
        except Exception as error:
            self._fail_jobs([job], error)
            return
        self._resolve_graph_job(job, execution, now, shard=None)

    async def _execute_graph_job_async(self, job: _Job, now: float) -> None:
        """Pooled variant of :meth:`_execute_graph_job`."""
        try:
            execution, shard = await self._executor.execute_graph(
                job.payload, job.modulus  # type: ignore[arg-type]
            )
        except asyncio.CancelledError:
            self._fail_jobs(
                [job], ServiceError("server stopped before execution finished")
            )
            raise
        except Exception as error:
            self._fail_jobs([job], error)
            return
        self._resolve_graph_job(job, execution, now, shard)

    def _resolve_graph_job(
        self, job: _Job, execution, now: float, shard: Optional[int]
    ) -> None:
        loop = asyncio.get_running_loop()
        self.metrics.record_batch(len(execution.values))
        finished = loop.time()
        self._resolve(
            job,
            Response(
                values=execution.results,
                kind="graph",
                backend=execution.backend,
                modulus=execution.modulus,
                tenant=job.tenant,
                batched_pairs=len(execution.values),
                modeled_cycles=execution.modeled_cycles,
                latency_ms=(finished - job.enqueued_at) * 1e3,
                queue_ms=(now - job.enqueued_at) * 1e3,
                shard=shard,
            ),
        )

    def _resolve(self, job: _Job, response: Response) -> None:
        self.metrics.record_completion(
            tenant=job.tenant,
            multiplications=job.pairs,
            latency_s=response.latency_ms / 1e3,
            queued_s=response.queue_ms / 1e3,
        )
        if not job.future.done():
            job.future.set_result(response)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics_summary(self) -> Dict[str, object]:
        """Service metrics plus the executor's operation/cache counters.

        ``context_cache`` and ``engine_multiplications`` cover every
        engine the executor drives — the server's own engine inline, or
        the merged counters of all worker processes under a pool.
        """
        return {
            **self.metrics.summary(),
            "pending": self._pending,
            "executing": self._executing,
            "backend": self.engine.info.name,
            "engine_multiplications": self._executor.engine_multiplications(),
            "context_cache": self._executor.cache_stats().as_dict(),
            "executor": self._executor.describe(),
        }
