"""Tests for the async serving layer: Server, Client, metrics, self-test."""

from __future__ import annotations

import asyncio
import statistics

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    ServiceError,
)
from repro.experiments import get_experiment
from repro.service import (
    Client,
    Server,
    ServerConfig,
    run_self_test,
)
from repro.workloads import ntt_graph, product_tree_graph


def run(coroutine):
    return asyncio.run(coroutine)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                assert server.running
                response = await server.multiply(5, 7)
                assert response.value == 35
            assert not server.running

        run(scenario())

    def test_submit_without_start_is_an_error(self):
        async def scenario():
            server = Server(backend="schoolbook", modulus=997)
            with pytest.raises(ServiceError, match="not running"):
                await server.multiply(1, 2)

        run(scenario())

    def test_stop_without_drain_fails_pending(self):
        async def scenario():
            server = Server(backend="schoolbook", modulus=997)
            await server.start()
            task = asyncio.ensure_future(server.multiply(3, 4))
            await asyncio.sleep(0)  # enqueue before stopping
            await server.stop(drain=False)
            with pytest.raises(ServiceError):
                await task

        run(scenario())


class TestRequests:
    def test_batch_request_round_trip(self, rng):
        async def scenario():
            modulus = 65521
            async with Server(backend="barrett", modulus=modulus) as server:
                pairs = [
                    (rng.randrange(modulus), rng.randrange(modulus))
                    for _ in range(12)
                ]
                response = await server.multiply_batch(pairs)
                assert response.values == tuple(
                    a * b % modulus for a, b in pairs
                )
                assert response.kind == "pairs"
                assert response.backend == "barrett"

        run(scenario())

    def test_graph_request_round_trip(self, rng):
        async def scenario():
            modulus = 997
            values = [rng.randrange(1, modulus) for _ in range(16)]
            reference = 1
            for value in values:
                reference = reference * value % modulus
            async with Server(backend="montgomery", modulus=modulus) as server:
                response = await server.submit_graph(product_tree_graph(values))
                assert response.values == (reference,)
                assert response.kind == "graph"
                assert response.batched_pairs == 15

        run(scenario())

    def test_structural_graph_is_rejected_at_submit(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                with pytest.raises(ConfigurationError, match="structural"):
                    await server.submit_graph(ntt_graph(8))

        run(scenario())

    def test_empty_batch_is_rejected(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                with pytest.raises(ConfigurationError, match="at least one"):
                    await server.multiply_batch([])

        run(scenario())

    def test_concurrent_requests_coalesce_into_batches(self, rng):
        async def scenario():
            modulus = 65521
            config = ServerConfig(max_batch=64)
            async with Server(
                backend="barrett", modulus=modulus, config=config
            ) as server:
                pairs = [
                    (rng.randrange(modulus), rng.randrange(modulus))
                    for _ in range(8)
                ]
                responses = await asyncio.gather(
                    *(server.multiply(a, b) for a, b in pairs)
                )
                for (a, b), response in zip(pairs, responses):
                    assert response.value == a * b % modulus
                # Every single-pair request rode a multi-pair batch call.
                assert server.metrics.batches < len(pairs)
                assert any(r.batched_pairs > 1 for r in responses)

        run(scenario())

    @pytest.mark.parametrize("workers", [None, 2], ids=["inline", "pool"])
    def test_lone_requests_dispatch_without_waiting(self, workers):
        """Batching is self-clocked: an idle server holds no request back."""

        async def scenario():
            async with Server(
                backend="montgomery", modulus=997, workers=workers
            ) as server:
                waits = []
                for index in range(20):
                    response = await server.multiply(index + 2, 3)
                    assert response.value == (index + 2) * 3 % 997
                    waits.append(response.queue_ms)
                return statistics.median(waits)

        assert run(scenario()) < 0.5


class TestBatchCap:
    def test_coalescing_honours_max_batch(self, rng):
        async def scenario():
            modulus = 65521
            config = ServerConfig(max_batch=8)
            async with Server(
                backend="barrett", modulus=modulus, config=config
            ) as server:
                pairs = [
                    (rng.randrange(modulus), rng.randrange(modulus))
                    for _ in range(6)
                ]
                first, second = await asyncio.gather(
                    server.multiply_batch(pairs, tenant="a"),
                    server.multiply_batch(pairs, tenant="b"),
                )
                # 6 + 6 > 8: the requests must not share one engine call.
                assert first.batched_pairs == 6
                assert second.batched_pairs == 6
                assert server.metrics.batches == 2

        run(scenario())

    def test_oversized_single_request_still_runs(self, rng):
        async def scenario():
            modulus = 997
            config = ServerConfig(max_batch=4)
            async with Server(
                backend="schoolbook", modulus=modulus, config=config
            ) as server:
                pairs = [
                    (rng.randrange(modulus), rng.randrange(modulus))
                    for _ in range(10)
                ]
                response = await server.multiply_batch(pairs)
                assert response.values == tuple(
                    a * b % modulus for a, b in pairs
                )

        run(scenario())


class TestTenantStateCleanup:
    def test_drained_tenants_are_forgotten(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                for index in range(20):
                    await server.multiply(index + 1, 3, tenant=f"t{index}")
                # Completed tenants leave no queue, rotation slot or
                # pending counter behind.
                assert server._pending == 0
                assert not server._tenants
                assert not server._rr
                assert not server._pending_by_tenant
                # Metrics still remember every tenant's completions.
                assert len(server.metrics.per_tenant_completed) == 20

        run(scenario())


class TestAdmissionAndDeadlines:
    def test_global_backpressure(self):
        async def scenario():
            config = ServerConfig(max_pending=2)
            async with Server(
                backend="schoolbook", modulus=997, config=config
            ) as server:
                server._pending = config.max_pending  # queue artificially full
                with pytest.raises(AdmissionError, match="queue full"):
                    await server.multiply(1, 2)
                server._pending = 0
                assert server.metrics.rejected_requests == 1

        run(scenario())

    def test_per_tenant_backpressure(self):
        async def scenario():
            config = ServerConfig(max_pending_per_tenant=1)
            async with Server(
                backend="schoolbook", modulus=997, config=config
            ) as server:
                server._pending_by_tenant["greedy"] = 1
                with pytest.raises(AdmissionError, match="greedy"):
                    await server.multiply(1, 2, tenant="greedy")
                # Other tenants are unaffected.
                server._pending_by_tenant["greedy"] = 0
                response = await server.multiply(3, 5, tenant="patient")
                assert response.value == 15

        run(scenario())

    def test_expired_deadline_fails_the_request(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                with pytest.raises(DeadlineError, match="deadline exceeded"):
                    await server.multiply(1, 2, deadline_ms=-1.0)
                assert server.metrics.deadline_misses == 1

        run(scenario())

    def test_generous_deadline_completes(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                response = await server.multiply(6, 7, deadline_ms=5000.0)
                assert response.value == 42

        run(scenario())


class TestOperandValidation:
    def test_bad_operands_fail_only_the_submitting_caller(self, rng):
        async def scenario():
            modulus = 65521
            async with Server(backend="barrett", modulus=modulus) as server:
                good = server.multiply(3, 5, tenant="good")
                bad = server.multiply(modulus, 2, tenant="bad")  # a >= p
                results = await asyncio.gather(
                    good, bad, return_exceptions=True
                )
                assert results[0].value == 15  # not poisoned by the bad job
                from repro.errors import OperandRangeError

                assert isinstance(results[1], OperandRangeError)

        run(scenario())

    def test_explicit_default_modulus_coalesces_with_none(self, rng):
        async def scenario():
            modulus = 997
            async with Server(backend="schoolbook", modulus=modulus) as server:
                first, second = await asyncio.gather(
                    server.multiply(3, 5),                      # modulus=None
                    server.multiply(7, 11, modulus=modulus),    # explicit
                )
                assert (first.value, second.value) == (15, 77)
                # Same effective modulus: one engine batch, not two.
                assert server.metrics.batches == 1
                assert first.batched_pairs == 2

        run(scenario())

    def test_missing_modulus_fails_at_submit(self):
        async def scenario():
            from repro.errors import ModulusError

            async with Server(backend="schoolbook") as server:
                with pytest.raises(ModulusError, match="no modulus"):
                    await server.multiply(1, 2)

        run(scenario())


class TestPriority:
    def test_higher_priority_jobs_dispatch_first_within_a_tenant(self):
        async def scenario():
            order = []
            config = ServerConfig(max_batch=1)
            async with Server(
                backend="schoolbook", modulus=997, config=config
            ) as server:
                async def tracked(a, priority):
                    response = await server.multiply(a, 2, priority=priority)
                    order.append((priority, response.value))

                # Enqueue three jobs in one tick; the dispatcher then
                # serves them one per batch, highest priority first.
                await asyncio.gather(
                    tracked(1, 0), tracked(2, 5), tracked(3, 1)
                )
            assert sorted(order, key=lambda item: -item[0]) == order

        run(scenario())


class TestFairness:
    def test_round_robin_across_tenant_queues(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                tenants = ("a", "b", "c")
                responses = await asyncio.gather(*(
                    server.multiply(i + 1, 2, tenant=tenants[i % 3])
                    for i in range(9)
                ))
                assert all(r.values for r in responses)
                completed = server.metrics.per_tenant_completed
                assert set(completed) == set(tenants)
                assert all(count == 3 for count in completed.values())

        run(scenario())


class TestClient:
    def test_client_binds_tenant_and_deadline(self):
        async def scenario():
            async with Server(backend="schoolbook", modulus=997) as server:
                client = Client(server, tenant="wallet", deadline_ms=5000.0)
                response = await client.multiply(10, 20)
                assert response.tenant == "wallet"
                assert response.value == 200
                batch = await client.multiply_batch([(2, 3), (4, 5)])
                assert batch.values == (6, 20)

        run(scenario())


class TestMetrics:
    def test_summary_shape(self, rng):
        async def scenario():
            modulus = 997
            async with Server(backend="montgomery", modulus=modulus) as server:
                await server.multiply_batch(
                    [(rng.randrange(modulus), rng.randrange(modulus))
                     for _ in range(4)]
                )
                summary = server.metrics_summary()
            for key in (
                "completed_requests",
                "requests_per_second",
                "latency",
                "context_cache",
                "engine_multiplications",
                "mean_batch_size",
            ):
                assert key in summary
            assert summary["completed_requests"] == 1
            assert summary["engine_multiplications"] == 4
            assert summary["context_cache"]["misses"] == 1

        run(scenario())


class TestMetricsAcrossRestarts:
    def test_elapsed_time_accumulates_over_start_stop_cycles(self):
        import time

        from repro.service import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.start()
        time.sleep(0.01)
        metrics.stop()
        first_run = metrics.elapsed_seconds
        assert first_run >= 0.01
        metrics.start()  # restart must not discard the first run's time
        time.sleep(0.01)
        metrics.stop()
        assert metrics.elapsed_seconds >= first_run + 0.01

    def test_server_restart_keeps_throughput_honest(self):
        async def scenario():
            server = Server(backend="schoolbook", modulus=997)
            await server.start()
            await server.multiply(2, 3)
            await server.stop()
            elapsed_first = server.metrics.elapsed_seconds
            await server.start()
            await server.multiply(4, 5)
            await server.stop()
            assert server.metrics.completed_requests == 2
            assert server.metrics.elapsed_seconds >= elapsed_first

        run(scenario())


class TestSelfTest:
    def test_quick_self_test_verifies_everything(self):
        params = get_experiment("serving-throughput").resolve_params(
            {"backend": "montgomery"}, quick=True
        )
        summary = run_self_test(**params)
        assert summary["failed_requests"] == 0
        assert summary["verified_requests"] == summary["completed_requests"]
        assert summary["completed_requests"] == (
            summary["tenants"] * summary["requests_per_tenant"]
        )
        assert summary["rejected_requests"] == 0
        # Both tenants made identical progress (fairness end to end).
        counts = set(summary["per_tenant_completed"].values())
        assert len(counts) == 1
