"""Worker failure paths: crash retry, retry exhaustion, clean drain.

The pool's contract under fire: a killed worker's in-flight batch is
re-dispatched to another shard (jobs are pure, so retries are
idempotent), the per-shard metrics keep counting across the restart, and
``Server`` shutdown drains cleanly with the pool still attached.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.engine import EngineSpec
from repro.errors import WorkerCrashError
from repro.service import (
    PoolConfig,
    PoolExecutor,
    Server,
    ServerConfig,
)


def run(coroutine):
    return asyncio.run(coroutine)


#: A 127-bit Mersenne prime: heavy enough per multiplication (r4csa-lut)
#: that a few hundred pairs keep a worker busy while the test kills it.
SLOW_MODULUS = (1 << 127) - 1


async def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestWorkerCrash:
    def test_killed_worker_batch_retries_on_another_shard(self):
        async def scenario():
            # A huge spill threshold pins the batch to its home shard, so
            # the test knows exactly which worker to kill.
            pool = PoolExecutor(
                spec=EngineSpec(backend="r4csa-lut"),
                workers=2,
                config=PoolConfig(spill_threshold=10 ** 9),
            )
            config = ServerConfig(max_batch=4096)
            async with Server(
                backend="r4csa-lut", modulus=SLOW_MODULUS, config=config,
                executor=pool,
            ) as server:
                home = pool.home_shard(SLOW_MODULUS)
                pairs = [(i + 2, i + 3) for i in range(400)]
                task = asyncio.ensure_future(server.multiply_batch(pairs))
                await _wait_for(lambda: pool.shard_depths()[home] > 0)
                os.kill(pool._shards[home].process.pid, signal.SIGKILL)
                response = await task
                assert response.values == tuple(
                    a * b % SLOW_MODULUS for a, b in pairs
                )
                assert response.shard != home, "retry must land elsewhere"
                # A fresh process replaced the dead one.
                await _wait_for(lambda: pool._shards[home].alive)
                follow_up = await server.multiply(3, 5)
                assert follow_up.value == 15
            rollup = pool.metrics.rollup()
            await pool.close()
            assert rollup["worker_restarts"] == 1
            assert rollup["retried_jobs"] == 1
            assert rollup["failed_jobs"] == 0
            # The dead worker's engine counters folded, not vanished: the
            # merged job/pair accounting covers both dispatch attempts.
            assert rollup["jobs"] >= 2
            assert rollup["per_shard"][home]["restarts"] == 1

        run(scenario())

    def test_retry_exhaustion_fails_with_worker_crash_error(self):
        async def scenario():
            pool = PoolExecutor(
                spec=EngineSpec(backend="r4csa-lut"),
                workers=1,
                config=PoolConfig(
                    spill_threshold=10 ** 9,
                    max_retries=0,
                    restart_workers=True,
                ),
            )
            config = ServerConfig(max_batch=4096)
            async with Server(
                backend="r4csa-lut", modulus=SLOW_MODULUS, config=config,
                executor=pool,
            ) as server:
                pairs = [(i + 2, i + 3) for i in range(400)]
                task = asyncio.ensure_future(server.multiply_batch(pairs))
                await _wait_for(lambda: pool.shard_depths()[0] > 0)
                os.kill(pool._shards[0].process.pid, signal.SIGKILL)
                with pytest.raises(WorkerCrashError, match="giving up"):
                    await task
            rollup = pool.metrics.rollup()
            await pool.close()
            assert rollup["failed_jobs"] == 1
            assert rollup["worker_restarts"] == 1

        run(scenario())

    def test_reply_written_before_death_resolves_once(self):
        """A reply left in a dead worker's pipe is an answer, not an orphan.

        The crash handler reads the pipe dry before it re-dispatches, so
        the job resolves from that reply, once, with no retry.
        """

        async def scenario():
            pool = PoolExecutor(
                spec=EngineSpec(backend="montgomery"),
                workers=2,
                config=PoolConfig(spill_threshold=10 ** 9),
            )
            await pool.start()
            try:
                home = pool.home_shard(997)
                shard = pool._shards[home]
                task = asyncio.ensure_future(pool.execute_pairs([(3, 5)], 997))
                await asyncio.sleep(0)  # dispatched; the reply is not read yet
                assert shard.depth == 1
                # Block the loop (so it cannot read the pipe) until the
                # reply is in it, then kill the worker and handle the
                # death as the monitor's next tick would.
                deadline = time.monotonic() + 30.0
                while not shard.replies.poll():
                    assert time.monotonic() < deadline, "no reply in time"
                    time.sleep(0.001)
                os.kill(shard.process.pid, signal.SIGKILL)
                shard.process.join(timeout=5.0)
                assert not shard.process.is_alive()
                pool._handle_crash(home)
                result, served_by = await task
                assert result.values == (15,)
                assert served_by == home
                rollup = pool.metrics.rollup()
                assert rollup["retried_jobs"] == 0
                assert rollup["failed_jobs"] == 0
                assert rollup["worker_restarts"] == 1
                assert rollup["jobs"] == 1
                # The drained reply's engine counters were kept, then folded.
                assert rollup["multiplications"] == 1
                assert pool.outstanding == 0
            finally:
                await pool.close()

        run(scenario())

    def test_unreplaced_dead_worker_is_counted_once(self):
        """With restarts disabled, one death is one restart event.

        The monitor must mark the slot handled; re-detecting the same
        corpse every poll tick would inflate restart/retired counters
        without bound.
        """

        async def scenario():
            pool = PoolExecutor(
                spec=EngineSpec(backend="r4csa-lut"),
                workers=2,
                config=PoolConfig(
                    spill_threshold=10 ** 9, restart_workers=False
                ),
            )
            config = ServerConfig(max_batch=4096)
            async with Server(
                backend="r4csa-lut", modulus=SLOW_MODULUS, config=config,
                executor=pool,
            ) as server:
                home = pool.home_shard(SLOW_MODULUS)
                pairs = [(i + 2, i + 3) for i in range(400)]
                task = asyncio.ensure_future(server.multiply_batch(pairs))
                await _wait_for(lambda: pool.shard_depths()[home] > 0)
                os.kill(pool._shards[home].process.pid, signal.SIGKILL)
                response = await task  # retried on the surviving shard
                assert response.shard != home
                # Let several monitor ticks pass over the unreplaced corpse.
                await asyncio.sleep(0.2)
                assert pool.metrics.rollup()["worker_restarts"] == 1
                assert not pool._shards[home].alive
            await pool.close()

        run(scenario())

    def test_server_close_drains_with_work_in_flight(self):
        """``stop(drain=True)`` resolves every admitted request."""

        async def scenario():
            config = ServerConfig(max_batch=64)
            server = Server(
                backend="r4csa-lut", modulus=SLOW_MODULUS, config=config,
                workers=2,
            )
            await server.start()
            pairs = [(i + 2, i + 3) for i in range(64)]
            tasks = [
                asyncio.ensure_future(server.multiply_batch(pairs))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await server.stop(drain=True)
            responses = await asyncio.gather(*tasks)
            expected = tuple(a * b % SLOW_MODULUS for a, b in pairs)
            assert all(
                response.values == expected for response in responses
            )
            assert server.metrics.completed_requests == 4

        run(scenario())

    def test_stop_without_drain_fails_inflight_pool_batches(self):
        async def scenario():
            config = ServerConfig(max_batch=4096)
            server = Server(
                backend="r4csa-lut", modulus=SLOW_MODULUS, config=config,
                workers=1,
            )
            await server.start()
            executor = server.executor
            pairs = [(i + 2, i + 3) for i in range(400)]
            task = asyncio.ensure_future(server.multiply_batch(pairs))
            await _wait_for(lambda: executor.outstanding > 0)
            await server.stop(drain=False)
            with pytest.raises(Exception):
                await task

        run(scenario())
