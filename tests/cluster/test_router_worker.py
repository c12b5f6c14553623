"""Router + worker + client, end to end on localhost sockets.

Workers here run *in-process* (same event loop as the router) so the
tests are fast and deterministic; real killable worker processes are
exercised in ``test_node_failures.py``.  The bar throughout: the fleet
returns exactly what the in-process engine returns — bit-identical — and
policy (SLOs, rate limits, drain) is observable in responses and stats.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import (
    ClusterClient,
    Connection,
    Router,
    RouterConfig,
    SloCatalog,
    SloClass,
    WorkerConfig,
    WorkerNode,
)
from repro.engine import Engine, EngineSpec
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    OperandRangeError,
    ProtocolError,
    ServiceError,
    WorkerCrashError,
)
from repro.workloads import product_tree_graph


def run(coroutine):
    return asyncio.run(coroutine)


MODULUS = (1 << 61) - 1


async def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestEndToEnd:
    def test_batch_is_bit_identical_to_local_engine(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port) as node:
                    pairs = [(3 * k + 1, 5 * k + 2) for k in range(32)]
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        response = await client.multiply_batch(
                            pairs, modulus=MODULUS
                        )
                    engine = Engine()
                    expected = tuple(
                        engine.multiply(a, b, MODULUS) for a, b in pairs
                    )
                    assert response.values == expected
                    assert response.node == node.name
                    assert response.batched_pairs == 32
                    # The default EngineSpec ships its backend to workers.
                    assert response.backend == EngineSpec().backend

        run(scenario())

    def test_graph_travels_and_executes_bit_identically(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    leaves = [k + 2 for k in range(8)]
                    graph = product_tree_graph(leaves)
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        response = await client.submit_graph(
                            graph, modulus=MODULUS
                        )
                    product = 1
                    for leaf in leaves:
                        product = (product * leaf) % MODULUS
                    assert response.values == (product,)
                    assert response.kind == "graph"

        run(scenario())

    def test_concurrent_clients_share_the_fleet(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async def one(tenant, k):
                        async with ClusterClient(
                            "127.0.0.1", router.port, tenant=tenant
                        ) as client:
                            response = await client.multiply_batch(
                                [(k + 2, k + 3)], modulus=MODULUS
                            )
                            return response.value
                    values = await asyncio.gather(
                        *(one(f"t{k % 3}", k) for k in range(12))
                    )
                    assert values == [
                        ((k + 2) * (k + 3)) % MODULUS for k in range(12)
                    ]
                    rollup = router.metrics.rollup()
                    assert rollup["completed"] == 12
                    assert len(rollup["per_tenant_completed"]) == 3

        run(scenario())

    def test_two_nodes_split_load_and_respect_home_affinity(self):
        async def scenario():
            config = RouterConfig(replication=1)
            async with Router(EngineSpec(), config=config) as router:
                async with WorkerNode(
                    "127.0.0.1", router.port, WorkerConfig(name="n0")
                ), WorkerNode(
                    "127.0.0.1", router.port, WorkerConfig(name="n1")
                ):
                    await _wait_for(lambda: len(router.live_nodes) == 2)
                    # With replication=1 every request for one modulus
                    # lands on its home node: warm-cache affinity.
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        for _ in range(6):
                            await client.multiply_batch(
                                [(5, 7)], modulus=MODULUS
                            )
                    per_node = {
                        name: m.dispatched
                        for name, m in router.metrics.nodes.items()
                    }
                    assert sorted(per_node.values()) == [0, 6]

        run(scenario())


class TestSloPolicy:
    def test_slo_resolves_deadline_and_priority(self):
        async def scenario():
            catalog = SloCatalog(
                [SloClass("fast", 5000.0, 3), SloClass("lazy", None, 0)]
            )
            async with Router(
                EngineSpec(), slo_catalog=catalog
            ) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port, slo="fast"
                    ) as client:
                        response = await client.multiply_batch(
                            [(2, 3)], modulus=MODULUS
                        )
                        assert response.slo == "fast"
                        # Unnamed SLO falls to the loosest tier.
                        bare = await ClusterClient(
                            "127.0.0.1", router.port
                        ).connect()
                        response2 = await bare.multiply_batch(
                            [(2, 3)], modulus=MODULUS
                        )
                        await bare.close()
                        assert response2.slo == "lazy"
                    rollup = router.metrics.rollup()
                    assert set(rollup["per_slo_latency"]) == {"fast", "lazy"}

        run(scenario())

    def test_unknown_slo_is_a_protocol_error(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        with pytest.raises(ProtocolError, match="platinum"):
                            await client.multiply_batch(
                                [(2, 3)], modulus=MODULUS, slo="platinum"
                            )

        run(scenario())

    def test_welcome_advertises_the_catalog(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                client = await ClusterClient(
                    "127.0.0.1", router.port
                ).connect()
                names = set(client.slo_classes)
                await client.close()
                assert names == {"gold", "silver", "best-effort"}

        run(scenario())


class TestRateLimiting:
    def test_tenant_over_rate_gets_admission_error(self):
        async def scenario():
            config = RouterConfig(rate_per_tenant=1.0, burst_per_tenant=8.0)
            async with Router(EngineSpec(), config=config) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port, tenant="greedy"
                    ) as client:
                        # 8 pairs drain the burst; the 9th pair is over.
                        await client.multiply_batch(
                            [(k + 1, k + 2) for k in range(8)],
                            modulus=MODULUS,
                        )
                        with pytest.raises(AdmissionError, match="rate"):
                            await client.multiply_batch(
                                [(1, 2)], modulus=MODULUS
                            )
                    # The other tenant is untouched.
                    async with ClusterClient(
                        "127.0.0.1", router.port, tenant="polite"
                    ) as client:
                        response = await client.multiply_batch(
                            [(3, 4)], modulus=MODULUS
                        )
                        assert response.value == 12
                    assert router.metrics.rate_limited == 1

        run(scenario())


class TestValidationAndErrors:
    def test_submit_shape_errors_are_structured(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        with pytest.raises(ProtocolError, match="modulus"):
                            await client.multiply_batch(
                                [(1, 2)], modulus=1
                            )

        run(scenario())

    def test_worker_side_validation_error_reaches_client(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        # Operand out of range: the worker's server
                        # rejects at admission; the class survives the
                        # wire.
                        with pytest.raises(OperandRangeError):
                            await client.multiply_batch(
                                [(MODULUS + 5, 2)], modulus=MODULUS
                            )

        run(scenario())

    def test_no_nodes_fails_fast_with_crash_error(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with ClusterClient("127.0.0.1", router.port) as client:
                    with pytest.raises(WorkerCrashError, match="no live"):
                        await client.multiply_batch([(2, 3)], modulus=MODULUS)
                # The ledger balances: admitted = completed + failed.
                stats = router.describe()
                assert (stats["submitted"], stats["failed"]) == (1, 1)
                assert (stats["completed"], stats["inflight"]) == (0, 0)

        run(scenario())

    def test_router_close_counts_inflight_jobs_failed(self):
        async def scenario():
            router = await Router(EngineSpec()).start()
            # A joined node that never answers keeps the job in flight.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.port
            )
            silent = Connection(reader, writer)
            await silent.send({"type": "join", "node": "silent"})
            assert (await silent.receive())["type"] == "welcome"
            async with ClusterClient("127.0.0.1", router.port) as client:
                pending = asyncio.ensure_future(
                    client.multiply_batch([(2, 3)], modulus=MODULUS)
                )
                await _wait_for(lambda: router.pending_by_node().get("silent"))
                await router.close()
                with pytest.raises(ServiceError):
                    await asyncio.wait_for(pending, 5)
            await silent.close()
            assert (router.metrics.submitted, router.metrics.failed) == (1, 1)

        run(scenario())

    @pytest.mark.parametrize(
        "nodes",
        [
            [{"deps": [], "a": 2, "b": 3}],
            [{"multiplicand": "x", "deps": ["a"], "a": 2, "b": 3}],
            [1, 2],
            [{"multiplicand": "x", "a": {"ref": "zero"}, "b": 3}],
            [{"multiplicand": "x", "a": 2.9, "b": 3}],
            [{"multiplicand": "x", "a": "5", "b": 3}],
            [{"multiplicand": "x", "a": True, "b": 3}],
        ],
        ids=[
            "missing-multiplicand",
            "string-dep",
            "non-object-nodes",
            "string-ref",
            "float-operand",
            "string-operand",
            "bool-operand",
        ],
    )
    def test_malformed_graph_is_answered_with_configuration_error(self, nodes):
        class HandWritten:
            """A client-built graph payload, sent as-is."""

            def to_payload(self):
                return {"name": "bad", "nodes": nodes}

        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        with pytest.raises(ConfigurationError, match="node 0"):
                            await asyncio.wait_for(
                                client.submit_graph(
                                    HandWritten(), modulus=MODULUS
                                ),
                                3,
                            )
                        await _wait_for(
                            lambda: router.describe()["inflight"] == 0
                        )
                        # The node still serves well-formed graphs.
                        graph = product_tree_graph([2, 3, 5])
                        response = await client.submit_graph(
                            graph, modulus=MODULUS
                        )
                        assert response.values == (30,)

        run(scenario())

    def test_duplicate_node_name_is_rejected(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode(
                    "127.0.0.1", router.port, WorkerConfig(name="twin")
                ):
                    with pytest.raises(ProtocolError, match="already joined"):
                        await WorkerNode(
                            "127.0.0.1", router.port, WorkerConfig(name="twin")
                        ).start()

        run(scenario())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(replication=0)
        with pytest.raises(ConfigurationError):
            RouterConfig(max_retries=-1)
        with pytest.raises(ConfigurationError, match="wire"):
            ClusterClient("127.0.0.1", 1, wire=1)


class TestDrainAndStats:
    def test_graceful_drain_stops_placement_then_releases(self):
        async def scenario():
            config = RouterConfig(replication=2)
            async with Router(EngineSpec(), config=config) as router:
                leaver = WorkerNode(
                    "127.0.0.1", router.port, WorkerConfig(name="leaver")
                )
                stayer = WorkerNode(
                    "127.0.0.1", router.port, WorkerConfig(name="stayer")
                )
                await leaver.start()
                await stayer.start()
                await _wait_for(lambda: len(router.live_nodes) == 2)
                await leaver.drain(timeout_s=10.0)
                assert router.live_nodes == ["stayer"]
                # Everything placed after the drain goes to the stayer.
                async with ClusterClient("127.0.0.1", router.port) as client:
                    for k in range(4):
                        response = await client.multiply_batch(
                            [(k + 2, k + 5)], modulus=MODULUS
                        )
                        assert response.node == "stayer"
                await stayer.stop()

        run(scenario())

    def test_stats_rollup_shape(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port) as node:
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        await client.multiply_batch([(6, 7)], modulus=MODULUS)
                        stats = await client.stats()
                    assert stats["kind"] == "cluster"
                    assert stats["completed"] == 1
                    assert stats["live_nodes"] == 1
                    assert stats["replication"] == 2
                    assert stats["spec"]["backend"] == EngineSpec().backend
                    node_stats = stats["per_node"][node.name]
                    assert node_stats["dispatched"] == 1
                    assert node_stats["state"] == "live"

        run(scenario())

    def test_describe_counts_outbound_frames(self):
        # perfbench's fleet-rpc builds its clients with ``wire=2``,
        # records ``client.wire`` and reads ``describe()["wire_frames"]``.
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port, wire=2
                    ) as client:
                        await client.multiply_batch([(6, 7)], modulus=MODULUS)
                        wire = client.wire
                    return wire, router.describe()["wire_frames"]

        wire, frames = run(scenario())
        assert wire == 2
        # One job out to the node, one result back to the client.
        assert frames["messages"] == 2
        assert 0 < frames["frames"] <= frames["messages"]

    @pytest.mark.slow
    def test_v2_fleet_counts_coalesced_frames(self):
        modulus = (1 << 255) - 19
        pairs = [
            ((3 * k + 1) * (1 << 200) + k, (5 * k + 2) * (1 << 199) + k)
            for k in range(16)
        ]

        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        responses = await asyncio.gather(
                            *(
                                client.multiply_batch(pairs, modulus=modulus)
                                for _ in range(8)
                            )
                        )
                    stats = router.metrics.wire_frames
                    return [r.values for r in responses], stats

        all_values, stats = run(scenario())
        engine = Engine()
        expected = tuple(engine.multiply(a, b, modulus) for a, b in pairs)
        assert all(values == expected for values in all_values)
        # The router's outbound path saw traffic; bundling is adaptive,
        # so only the message/frame counters are deterministic facts.
        assert stats["messages"] >= 8
        assert 0 < stats["frames"] <= stats["messages"]

    def test_heartbeat_carries_server_metrics(self):
        async def scenario():
            config = RouterConfig(heartbeat_interval_s=0.05)
            async with Router(EngineSpec(), config=config) as router:
                async with WorkerNode("127.0.0.1", router.port) as node:
                    async with ClusterClient(
                        "127.0.0.1", router.port
                    ) as client:
                        await client.multiply_batch([(2, 9)], modulus=MODULUS)
                    await _wait_for(
                        lambda: router.metrics.node(node.name).heartbeat.get(
                            "completed_requests", 0
                        ) >= 1
                    )
                    snapshot = router.metrics.node(node.name).heartbeat
                    assert snapshot["backend"] == EngineSpec().backend

        run(scenario())

    def test_router_close_fails_inflight_and_notifies_workers(self):
        async def scenario():
            router = await Router(EngineSpec()).start()
            node = await WorkerNode("127.0.0.1", router.port).start()
            await router.close()
            # The worker got the shutdown frame and released itself.
            await asyncio.wait_for(node.wait(), 5)
            await node.stop()

        run(scenario())
