"""Node-loss recovery at cluster scope (the pool failure tests' mirror).

The fleet contract under fire: SIGKILL a worker *process* mid-batch and
every submitted request still completes — re-dispatched to a survivor,
recomputed bit-identically (jobs are pure functions of their payload),
with consistent metrics and a node registry that converges (dead node
marked dead, replacement joins cleanly).

These tests spawn real OS worker processes through
:class:`~repro.cluster.fleet.LocalFleet`, so they cost seconds, not
milliseconds; the fast policy/protocol paths live in the sibling files.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterClient, LocalFleet, RouterConfig
from repro.engine import Engine, EngineSpec

pytestmark = pytest.mark.slow

#: A 127-bit Mersenne prime: heavy enough per multiplication that a
#: batch keeps a node busy while the test kills it (same constant the
#: pool failure tests use).
SLOW_MODULUS = (1 << 127) - 1


def run(coroutine):
    return asyncio.run(coroutine)


async def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestNodeKillRecovery:
    def test_sigkilled_node_jobs_complete_bit_identical_on_survivor(self):
        async def scenario():
            # replication=1 pins the slow modulus to its home node, so
            # the test knows exactly which process to kill mid-batch.  The
            # bit-serial r4csa-lut kernel keeps the batches in flight for
            # ~90 ms; on the schoolbook serving default they all finish
            # in ~0.1 ms, between two polls for pending work.
            config = RouterConfig(replication=1, max_retries=2)
            async with LocalFleet(
                spec=EngineSpec(backend="r4csa-lut"),
                workers=2,
                router_config=config,
            ) as fleet:
                router = fleet.router
                home = router._ring.home(SLOW_MODULUS)
                batches = [
                    [(100 * b + k + 2, 100 * b + k + 5) for k in range(60)]
                    for b in range(6)
                ]
                async with ClusterClient(
                    "127.0.0.1", fleet.port, tenant="killer"
                ) as client:
                    tasks = [
                        asyncio.ensure_future(
                            client.multiply_batch(
                                batch, modulus=SLOW_MODULUS
                            )
                        )
                        for batch in batches
                    ]
                    # Kill the home node while its jobs are in flight.
                    await _wait_for(
                        lambda: router.pending_by_node().get(home, 0) > 0
                    )
                    fleet.kill_worker(name=home)
                    responses = await asyncio.gather(*tasks)

                # Every batch answered, every product bit-identical.
                engine = Engine()
                for batch, response in zip(batches, responses):
                    expected = tuple(
                        engine.multiply(a, b, SLOW_MODULUS) for a, b in batch
                    )
                    assert response.values == expected
                    assert response.node != home

                # Registry converged: home dead, survivor live.
                assert home not in router.live_nodes
                assert len(router.live_nodes) == 1
                rollup = router.metrics.rollup()
                assert rollup["per_node"][home]["state"] == "dead"
                # Metrics stayed consistent across the loss.
                assert rollup["submitted"] == len(batches)
                assert rollup["completed"] == len(batches)
                assert rollup["failed"] == 0
                assert rollup["inflight"] == 0
                assert rollup["lost_nodes"] == 1
                assert rollup["redispatches"] >= 1
                survivor = router.live_nodes[0]
                assert (
                    rollup["per_node"][survivor]["redispatched"]
                    == rollup["redispatches"]
                )

        run(scenario())

    def test_replacement_node_joins_after_a_kill(self):
        async def scenario():
            async with LocalFleet(spec=EngineSpec(), workers=2) as fleet:
                fleet.kill_worker(index=0)
                await fleet.wait_for_nodes(1)
                replacement = fleet.spawn_worker(name="replacement")
                await fleet.wait_for_nodes(2)
                assert replacement in fleet.router.live_nodes
                # The rejoined fleet serves (and the new node is in the
                # ring: with replication=2 on 2 nodes both are owners).
                async with ClusterClient("127.0.0.1", fleet.port) as client:
                    response = await client.multiply_batch(
                        [(11, 13)], modulus=(1 << 61) - 1
                    )
                    assert response.value == 143

        run(scenario())

    def test_loadtest_with_kill_loses_nothing(self):
        """The acceptance criterion, through the public one-call path."""
        from repro.cluster import run_loadtest

        report = run(
            run_loadtest(workers=2, quick=True, seed=7, kill_worker=True)
        )
        assert report["sent"] > 0
        assert report["lost"] == 0
        assert report["mismatches"] == 0
        assert report["killed_pid"] is not None
        assert report["cluster"]["lost_nodes"] == 1
