"""Sharded multi-process batch execution: escape the GIL.

:class:`PoolExecutor` dispatches the server's coalesced batches across N
OS processes.  Each worker owns a pinned :class:`~repro.engine.Engine`
rebuilt from the parent's :class:`~repro.engine.EngineSpec`, with its own
warm per-modulus context cache, so the arithmetic runs on N cores instead
of sharing one GIL.

**Shard routing.**  Jobs route to ``sha256(modulus) % workers`` — the
*home* shard — so a modulus's LUT/Montgomery/Barrett context warms once
and stays hot on one worker.  When the home shard's queue is deep
(skewed traffic, e.g. a single hot modulus), the job spills to the
least-loaded live shard instead: affinity when it is cheap, parallelism
when it matters.

**Worker lifecycle.**  A monitor task watches worker liveness.  When a
process dies, every reply it wrote before dying is read and honoured,
its slot is restarted with a fresh queue and pipe, and every job still
outstanding on it is re-dispatched to another live shard (jobs are pure
functions of their payload, so a retry is idempotent; results are also
deduplicated by job id).  A job that outlives
:attr:`PoolConfig.max_retries` crashes fails with
:class:`~repro.errors.WorkerCrashError`.  :meth:`PoolExecutor.close`
drains outstanding work, sends each worker a shutdown sentinel, joins the
processes and fails any stragglers' futures cleanly.

**Wire format.**  Requests are ``(kind, job_id, modulus, payload)``
tuples on a per-shard ``multiprocessing`` queue, whose feeder thread
keeps a large put from blocking the event loop.  Each worker answers on
its own one-way pipe with ``(shard, generation, job_id, (status,
payload), elapsed, stats)``; the parent reads the pipes on the event loop
itself (``loop.add_reader``, so a selector loop: asyncio's default on
POSIX), and a reply costs no thread hop.  ``stats``
piggybacks the worker engine's multiplication and context-cache counters,
giving the parent a merged cross-process cache view without a stats
round-trip.  The worker holds its pipe's only write end, so its death
reads as end-of-file.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.engine import CacheStats, EngineSpec
from repro.errors import ConfigurationError, ServiceError, WorkerCrashError
from repro.service.executor import Executor
from repro.service.metrics import PoolMetrics

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.engine import BatchResult
    from repro.workloads.execute import GraphExecution
    from repro.workloads.graph import WorkloadGraph

__all__ = ["PoolConfig", "PoolExecutor", "shard_for"]


def shard_for(modulus: int, workers: int) -> int:
    """The home shard of a modulus: stable across processes and runs.

    ``hash()`` would do in-process but is salted per interpreter for
    strings and makes no cross-run guarantee; a digest keeps routing
    deterministic everywhere (tests, restarted workers, documentation).
    """
    digest = hashlib.sha256(
        modulus.to_bytes((modulus.bit_length() + 7) // 8 or 1, "little")
    ).digest()
    return int.from_bytes(digest[:8], "little") % workers


@dataclass(frozen=True)
class PoolConfig:
    """Tunables of the sharded worker pool."""

    #: ``multiprocessing`` start method.  ``"spawn"`` is the default: it
    #: is safe to combine with the parent's event loop and queue feeder
    #: threads (``"fork"`` can inherit a locked queue and deadlock a child).
    start_method: str = "spawn"
    #: Outstanding jobs on the home shard before a new job spills to the
    #: least-loaded shard instead (affinity vs. skew trade-off).
    spill_threshold: int = 2
    #: Cross-shard re-dispatches a job survives before failing with
    #: :class:`WorkerCrashError`.
    max_retries: int = 2
    #: Whether crashed workers are replaced (fresh process, cold cache).
    restart_workers: bool = True
    #: Liveness poll interval of the monitor task (seconds).
    monitor_interval_s: float = 0.02
    #: How long :meth:`PoolExecutor.close` waits for outstanding work.
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"unknown start method {self.start_method!r}; available: "
                f"{multiprocessing.get_all_start_methods()}"
            )
        if self.spill_threshold < 1:
            raise ConfigurationError(
                f"spill_threshold must be >= 1, got {self.spill_threshold}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.monitor_interval_s <= 0 or self.drain_timeout_s <= 0:
            raise ConfigurationError("pool intervals must be positive")


def _worker_main(
    shard: int,
    generation: int,
    spec_data: Dict[str, object],
    requests,
    replies: Connection,
) -> None:
    """One worker process: build the engine, serve jobs until the sentinel.

    Runs in the child.  Job failures are *answered*, not fatal: the
    exception travels back on the reply pipe (re-wrapped when it does not
    pickle) and the worker keeps serving.  ``generation`` identifies which
    incarnation of the shard slot this process is, so the parent can tell
    a live worker's stats report from a dead predecessor's late one.
    """
    from repro.workloads.execute import execute_graph

    engine = EngineSpec.from_dict(spec_data).build()

    def stats_payload() -> Dict[str, object]:
        stats = engine.stats()
        return {
            "multiplications": stats.multiplications,
            "cache": stats.cache.as_dict(),
        }

    while True:
        message = requests.get()
        if message is None:
            break
        kind, job_id, modulus, payload = message
        started = time.perf_counter()
        try:
            if kind == "pairs":
                outcome: Tuple[str, object] = (
                    "ok",
                    engine.multiply_batch(payload, modulus),
                )
            elif kind == "graph":
                outcome = ("ok", execute_graph(engine, payload, modulus))
            else:  # pragma: no cover - parent never sends other kinds
                outcome = ("error", ServiceError(f"unknown job kind {kind!r}"))
        except Exception as error:
            try:
                pickle.dumps(error)
            except Exception:
                error = ServiceError(f"{type(error).__name__}: {error}")
            outcome = ("error", error)
        replies.send(
            (
                shard,
                generation,
                job_id,
                outcome,
                time.perf_counter() - started,
                stats_payload(),
            )
        )


@dataclass
class _PendingJob:
    """Parent-side record of one dispatched-but-unanswered job."""

    job_id: int
    kind: str
    payload: object
    modulus: int
    weight: int
    future: "asyncio.Future[Tuple[object, int]]"
    shard: int = -1
    retries: int = 0


@dataclass
class _Shard:
    """One worker slot: the process, its queue and pipe, its in-flight ids."""

    index: int
    #: Which incarnation of this slot the process is (bumped on restart).
    generation: int
    process: multiprocessing.process.BaseProcess
    requests: object  # multiprocessing queue (ctx-specific type)
    #: Read end of the worker's reply pipe, watched by the event loop.
    replies: Connection
    pending_ids: Set[int] = field(default_factory=set)
    #: Death already handled (counters folded, jobs re-dispatched); set
    #: only when the slot is *not* replaced, so the monitor fires once.
    crashed: bool = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def depth(self) -> int:
        """Outstanding jobs (the load figure routing balances on)."""
        return len(self.pending_ids)


class PoolExecutor(Executor):
    """Execute the server's batches across a pool of engine processes.

    Parameters
    ----------
    spec:
        The engine recipe every worker builds from (defaults to the
        default :class:`EngineSpec`).  Validated eagerly so an
        unresolvable backend fails the caller, not a worker.
    workers:
        Shard count.  Throughput scales with cores (see
        ``benchmarks/bench_serve.py``); one worker still isolates
        execution from the event loop but adds no parallelism.
    config:
        :class:`PoolConfig` tunables.
    """

    inline = False

    def __init__(
        self,
        spec: Optional[EngineSpec] = None,
        workers: int = 4,
        config: Optional[PoolConfig] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"pool needs >= 1 worker, got {workers}")
        self.spec = (spec or EngineSpec()).validate()
        self.workers = workers
        self.config = config or PoolConfig()
        self.metrics = PoolMetrics.for_workers(workers)
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._shards: List[_Shard] = []
        self._pending: Dict[int, _PendingJob] = {}
        self._job_ids = itertools.count()
        self._monitor: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the workers and the liveness monitor."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self.metrics.start()
        self._shards = [self._spawn_shard(index) for index in range(self.workers)]
        self._monitor = self._loop.create_task(self._monitor_loop())
        self._started = True

    def _spawn_shard(self, index: int, generation: int = 0) -> _Shard:
        assert self._loop is not None
        requests = self._ctx.Queue()
        replies, reply_end = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index, generation, self.spec.as_dict(), requests, reply_end,
            ),
            name=f"repro-pool-{index}",
            daemon=True,
        )
        process.start()
        # The worker now holds the only write end: its death reads as EOF.
        reply_end.close()
        shard = _Shard(
            index=index,
            generation=generation,
            process=process,
            requests=requests,
            replies=replies,
        )
        self._loop.add_reader(replies.fileno(), self._read_replies, shard)
        return shard

    async def close(self) -> None:
        """Drain outstanding work, stop the workers, fail any stragglers."""
        if not self._started:
            return
        self._closing = True
        # Outstanding jobs finish (or crash and get retried/failed by the
        # monitor, which keeps running until the drain completes).  Jobs
        # whose futures are already done — cancelled by an abortive
        # server stop — have no one waiting; forget them instead of
        # blocking the close on results nobody will read.
        deadline = time.perf_counter() + self.config.drain_timeout_s
        while True:
            self._forget_abandoned_jobs()
            if not self._pending or time.perf_counter() >= deadline:
                break
            await asyncio.sleep(self.config.monitor_interval_s)
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        for job in list(self._pending.values()):
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("pool closed before the job completed")
                )
        self._pending.clear()
        for shard in self._shards:
            shard.pending_ids.clear()
            if shard.alive:
                try:
                    shard.requests.put(None)
                except Exception:  # pragma: no cover - queue already broken
                    pass
        # Joins can wait on a worker finishing an abandoned batch; do the
        # waiting in a thread so the event loop stays responsive and keeps
        # reading the pipes (a worker blocks sending into a full one).
        await asyncio.get_running_loop().run_in_executor(
            None, self._join_workers
        )
        for shard in self._shards:
            self._unwatch(shard)
            try:
                shard.requests.close()
                shard.requests.join_thread()
            except Exception:  # pragma: no cover - queue already broken
                pass
        self._shards = []
        self._started = False

    def _forget_abandoned_jobs(self) -> None:
        """Drop pending jobs whose futures are already done (cancelled)."""
        for job_id, job in list(self._pending.items()):
            if job.future.done():
                self._pending.pop(job_id, None)
                for shard in self._shards:
                    shard.pending_ids.discard(job_id)

    def _join_workers(self) -> None:
        """Join (then terminate) every worker; runs off the event loop."""
        for shard in self._shards:
            shard.process.join(timeout=2.0)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.terminate()
                shard.process.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    # submission / routing
    # ------------------------------------------------------------------ #
    async def execute_pairs(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> Tuple["BatchResult", Optional[int]]:
        return await self._submit("pairs", tuple(pairs), modulus, len(pairs))

    async def execute_graph(
        self, graph: "WorkloadGraph", modulus: int
    ) -> Tuple["GraphExecution", Optional[int]]:
        return await self._submit("graph", graph, modulus, len(graph))

    async def _submit(
        self, kind: str, payload: object, modulus: int, weight: int
    ) -> Tuple[object, int]:
        if not self._started:
            raise ServiceError("pool executor is not started")
        if self._closing:
            raise ServiceError("pool executor is closing; submission refused")
        assert self._loop is not None
        job = _PendingJob(
            job_id=next(self._job_ids),
            kind=kind,
            payload=payload,
            modulus=modulus,
            weight=weight,
            future=self._loop.create_future(),
        )
        self._pending[job.job_id] = job
        self._dispatch(job, exclude=frozenset(), retry=False)
        return await job.future

    def home_shard(self, modulus: int) -> int:
        """The stable-hash home of a modulus in this pool."""
        return shard_for(modulus, self.workers)

    def _route(self, modulus: int, exclude: frozenset) -> Tuple[_Shard, bool]:
        """Pick a shard: home when its queue is shallow, else least-loaded."""
        live = [
            shard
            for shard in self._shards
            if shard.alive and shard.index not in exclude
        ]
        if not live:
            # Dead excluded shards may be restartable; fall back to any
            # live shard at all before giving up.
            live = [shard for shard in self._shards if shard.alive]
        if not live:
            raise WorkerCrashError("no live pool workers to dispatch to")
        home_index = self.home_shard(modulus)
        home = self._shards[home_index]
        if (
            home in live
            and home.depth < self.config.spill_threshold
        ):
            return home, False
        least = min(live, key=lambda shard: (shard.depth, shard.index))
        return least, least.index != home_index

    def _dispatch(self, job: _PendingJob, exclude: frozenset, retry: bool) -> None:
        shard, spilled = self._route(job.modulus, exclude)
        job.shard = shard.index
        shard.pending_ids.add(job.job_id)
        self.metrics.shards[shard.index].record_dispatch(
            pairs=job.weight, spilled=spilled, retry=retry
        )
        shard.requests.put((job.kind, job.job_id, job.modulus, job.payload))

    # ------------------------------------------------------------------ #
    # replies and failures
    # ------------------------------------------------------------------ #
    def _read_replies(self, shard: _Shard) -> None:
        """Read every reply waiting in ``shard``'s pipe.

        The loop's reader callback, and the crash handler's drain.  All
        replies that arrived together resolve in the same loop pass, so
        the requests their callers send next queue up together and share
        a batch.  End-of-file means the worker is gone: the pipe is then
        closed, and the monitor handles the death.
        """
        while True:
            try:
                item = shard.replies.recv()
            except (EOFError, OSError):
                self._unwatch(shard)
                return
            self._on_reply(item)
            if not shard.replies.poll():
                return

    def _unwatch(self, shard: _Shard) -> None:
        """Stop reading ``shard``'s pipe and close it (idempotent)."""
        if not shard.replies.closed:
            assert self._loop is not None
            self._loop.remove_reader(shard.replies.fileno())
            shard.replies.close()

    def _on_reply(self, item) -> None:
        shard_index, generation, job_id, (status, payload), elapsed, stats = item
        shard_metrics = self.metrics.shards[shard_index]
        if generation == self._shards[shard_index].generation:
            shard_metrics.record_report(
                elapsed_s=elapsed,
                multiplications=int(stats.get("multiplications", 0)),
                cache=dict(stats.get("cache", {})),
            )
        # Only the slot's current worker reports counters: a predecessor's
        # were folded into the retired totals when it died, and recording
        # them again would double-count.  (A carried result is honoured.)
        job = self._pending.pop(job_id, None)
        if job is None:
            # Already settled (forgotten at close, or answered twice): the
            # first outcome stands; drop this one.
            return
        for shard in self._shards:
            shard.pending_ids.discard(job_id)
        if job.future.done():  # pragma: no cover - cancelled by caller
            return
        if status == "ok":
            job.future.set_result((payload, shard_index))
        else:
            job.future.set_exception(payload)

    async def _monitor_loop(self) -> None:
        """Detect dead workers; restart them and re-dispatch their jobs."""
        while True:
            await asyncio.sleep(self.config.monitor_interval_s)
            for index in range(len(self._shards)):
                shard = self._shards[index]
                if shard.crashed or shard.alive or shard.process.exitcode is None:
                    continue
                self._handle_crash(index)

    def _handle_crash(self, index: int) -> None:
        shard = self._shards[index]
        # Replies the worker wrote before it died are answers, not orphans:
        # read them all (their counters too) before re-dispatching the rest.
        if not shard.replies.closed and shard.replies.poll():
            self._read_replies(shard)
        self._unwatch(shard)
        self.metrics.shards[index].record_restart()
        orphan_ids = sorted(shard.pending_ids)
        shard.pending_ids.clear()
        if self.config.restart_workers and not self._closing:
            self._shards[index] = self._spawn_shard(
                index, generation=shard.generation + 1
            )
        else:
            # No replacement: mark the slot handled so the monitor does
            # not count the same death again, and retire its generation
            # as a restart would.
            shard.crashed = True
            shard.generation += 1
        exitcode = shard.process.exitcode
        for job_id in orphan_ids:
            job = self._pending.get(job_id)
            if job is None:
                continue
            job.retries += 1
            if job.retries > self.config.max_retries:
                self._pending.pop(job_id, None)
                self.metrics.failed_jobs += 1
                if not job.future.done():
                    job.future.set_exception(
                        WorkerCrashError(
                            f"job {job_id} lost worker {index} "
                            f"(exit code {exitcode}) "
                            f"{job.retries} times; giving up"
                        )
                    )
                continue
            # Prefer a *different* shard for the retry; with a single
            # worker the freshly restarted slot is the only choice.
            exclude = (
                frozenset({index})
                if any(s.alive for s in self._shards if s.index != index)
                else frozenset()
            )
            try:
                self._dispatch(job, exclude=exclude, retry=True)
            except WorkerCrashError as error:
                self._pending.pop(job_id, None)
                self.metrics.failed_jobs += 1
                if not job.future.done():
                    job.future.set_exception(error)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """Jobs dispatched to workers but not yet answered."""
        return len(self._pending)

    def shard_depths(self) -> List[int]:
        """Outstanding jobs per shard (routing's load view)."""
        return [shard.depth for shard in self._shards]

    def cache_stats(self) -> CacheStats:
        """Context-cache counters merged across every worker engine."""
        return self.metrics.cache_stats()

    def engine_multiplications(self) -> int:
        return self.metrics.multiplications()

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "pool",
            "backend": self.spec.backend,
            "spec": self.spec.as_dict(),
            "start_method": self.config.start_method,
            "spill_threshold": self.config.spill_threshold,
            **self.metrics.rollup(),
        }

    def __repr__(self) -> str:
        return (
            f"PoolExecutor(backend={self.spec.backend!r}, "
            f"workers={self.workers}, started={self._started})"
        )
