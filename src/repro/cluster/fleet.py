"""A local fleet in one call: router in-process, workers as processes.

:class:`LocalFleet` is the cluster analogue of the pool's self-test
harness: it starts a :class:`~repro.cluster.router.Router` on an
ephemeral localhost port, spawns N worker nodes as *real* OS processes
(``multiprocessing`` spawn context — each with its own interpreter,
engine and caches, killable with real signals) and waits for them all to
join.  Tests, the ``repro cluster loadtest`` CLI verb and the cluster
benchmark all drive fleets through this class, so a "kill a node
mid-run" scenario is three lines, not a process-management project.

:func:`run_loadtest` is the one-call scenario on top: build a fleet,
generate a seeded multi-tenant trace, replay it — optionally SIGKILLing
a worker halfway through — and report the loadgen verdict plus the
router's rollup.  ``report["lost"] == 0`` across a kill is the
acceptance bar for the fleet's failure handling.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from typing import Dict, List, Optional, Sequence

from repro.cluster.loadgen import TenantProfile, build_trace, replay
from repro.cluster.router import Router, RouterConfig
from repro.cluster.slo import SloCatalog
from repro.engine import EngineSpec
from repro.errors import ConfigurationError, ServiceError

__all__ = ["LocalFleet", "run_loadtest"]


def _fleet_worker_main(host: str, port: int, name: str) -> None:
    """Entry point of one spawned worker process (module-level so the
    spawn context can pickle it)."""
    from repro.cluster.worker import run_worker

    run_worker(host, port, name=name)


class LocalFleet:
    """A router plus N killable worker processes on localhost.

    ::

        async with LocalFleet(workers=2) as fleet:
            # fleet.port is the router port clients dial
            fleet.kill_worker(0)          # SIGKILL, mid-anything
            await fleet.wait_for_nodes(1) # router noticed
    """

    def __init__(
        self,
        spec: Optional[EngineSpec] = None,
        workers: int = 2,
        router_config: Optional[RouterConfig] = None,
        slo_catalog: Optional[SloCatalog] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.spec = spec or EngineSpec()
        self.router = Router(
            self.spec, config=router_config, slo_catalog=slo_catalog
        )
        self.workers = workers
        self._context = multiprocessing.get_context("spawn")
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._next_worker = 0

    @property
    def port(self) -> int:
        """The router's bound port (valid after :meth:`start`)."""
        return self.router.port

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, join_timeout_s: float = 30.0) -> "LocalFleet":
        """Start the router, spawn the workers, wait until all joined."""
        await self.router.start()
        for _ in range(self.workers):
            self.spawn_worker()
        await self.wait_for_nodes(self.workers, timeout_s=join_timeout_s)
        return self

    async def close(self) -> None:
        """Shut the router down and reap every worker process."""
        await self.router.close()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck child
                process.kill()
                process.join(timeout=5.0)
        self._processes.clear()

    async def __aenter__(self) -> "LocalFleet":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # membership control
    # ------------------------------------------------------------------ #
    def spawn_worker(self, name: Optional[str] = None) -> str:
        """Start one more worker process; returns its node name."""
        index = self._next_worker
        self._next_worker += 1
        node_name = name or f"fleet-{index}"
        process = self._context.Process(
            target=_fleet_worker_main,
            args=(self.router.config.host, self.router.port, node_name),
            daemon=True,
            name=node_name,
        )
        process.start()
        self._processes.append(process)
        return node_name

    def kill_worker(self, index: int = 0, name: Optional[str] = None) -> int:
        """SIGKILL a *live* worker process; returns its pid.

        SIGKILL, not terminate: the point is a node that vanishes
        without a goodbye, the failure mode the router must detect and
        recover from.  ``name`` targets a specific node (processes are
        named after their nodes); otherwise ``index`` picks among the
        live processes.
        """
        live = [p for p in self._processes if p.is_alive()]
        if not live:
            raise ServiceError("no live worker processes to kill")
        if name is not None:
            matches = [p for p in live if p.name == name]
            if not matches:
                raise ServiceError(
                    f"no live worker process named {name!r} "
                    f"(live: {[p.name for p in live]})"
                )
            process = matches[0]
        else:
            process = live[index % len(live)]
        assert process.pid is not None
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        return process.pid

    async def wait_for_nodes(
        self, count: int, timeout_s: float = 30.0
    ) -> None:
        """Block until the router sees exactly ``count`` live nodes."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if len(self.router.live_nodes) == count:
                return
            await asyncio.sleep(0.01)
        raise ServiceError(
            f"fleet did not reach {count} live nodes within {timeout_s}s "
            f"(live: {self.router.live_nodes})"
        )

    def __repr__(self) -> str:
        return (
            f"LocalFleet(workers={self.workers}, port={self.router.port}, "
            f"live={len(self.router.live_nodes)})"
        )


#: The default tenant mix of :func:`run_loadtest`: one of each arrival
#: pattern, mapped onto the three default SLO tiers.
_DEFAULT_MIX = (
    ("steady-gold", "steady", "gold"),
    ("diurnal-silver", "diurnal", "silver"),
    ("bursty-be", "bursty", None),
)


async def run_loadtest(
    workers: int = 2,
    duration_s: float = 2.0,
    rate: float = 30.0,
    seed: int = 0,
    time_scale: float = 1.0,
    pairs_per_request: int = 4,
    bit_width: int = 64,
    kill_worker: bool = False,
    spec: Optional[EngineSpec] = None,
    profiles: Optional[Sequence[TenantProfile]] = None,
    router_config: Optional[RouterConfig] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """One full cluster load test: fleet up, trace in, verdict out.

    ``kill_worker=True`` SIGKILLs one worker halfway through the replay;
    a healthy fleet still reports ``lost == 0`` and ``mismatches == 0``
    because every orphaned job re-dispatches to a survivor and recomputes
    bit-identically.  ``quick=True`` shrinks the trace for smoke tests
    (the CI cluster smoke runs exactly this).
    """
    if quick:
        duration_s = min(duration_s, 1.0)
        rate = min(rate, 15.0)
    if profiles is None:
        profiles = [
            TenantProfile(
                name=name,
                pattern=pattern,
                rate=rate,
                pairs_per_request=pairs_per_request,
                bit_width=bit_width,
                slo=slo,
            )
            for name, pattern, slo in _DEFAULT_MIX
        ]
    trace = build_trace(profiles, duration_s=duration_s, seed=seed)
    started = time.monotonic()
    async with LocalFleet(
        spec=spec, workers=workers, router_config=router_config
    ) as fleet:
        kill_task: Optional[asyncio.Task] = None
        killed_pid: Optional[int] = None

        async def _kill_midway() -> None:
            nonlocal killed_pid
            await asyncio.sleep(duration_s * time_scale / 2)
            killed_pid = fleet.kill_worker(0)

        if kill_worker:
            if workers < 2:
                raise ConfigurationError(
                    "kill_worker needs at least 2 workers to leave a survivor"
                )
            kill_task = asyncio.get_running_loop().create_task(_kill_midway())
        report = await replay(
            fleet.router.config.host,
            fleet.port,
            trace,
            time_scale=time_scale,
        )
        if kill_task is not None:
            await kill_task
        report["cluster"] = fleet.router.describe()
    report["workers"] = workers
    report["kill_worker"] = kill_worker
    report["killed_pid"] = killed_pid
    report["seed"] = seed
    report["duration_s"] = duration_s
    report["wall_seconds"] = time.monotonic() - started
    return report
