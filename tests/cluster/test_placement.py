"""Placement policy units: hash ring, SLO catalog, token buckets.

All pure logic — deterministic hashing, injected clocks — so these run
in microseconds and pin the policy behavior the router builds on.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    HashRing,
    SloCatalog,
    SloClass,
    TenantRateLimiter,
    TokenBucket,
    stable_hash,
)
from repro.cluster.slo import DEFAULT_SLO_CLASSES
from repro.errors import ConfigurationError


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("node-a#3") == stable_hash("node-a#3")

    def test_int_and_string_keys_differ(self):
        # Different key spaces should not trivially collide.
        assert stable_hash(7) != stable_hash("7")

    def test_spread(self):
        values = {stable_hash(i) for i in range(1000)}
        assert len(values) == 1000


class TestHashRing:
    def test_empty_ring(self):
        ring = HashRing()
        assert ring.nodes_for(97) == []
        with pytest.raises(ConfigurationError):
            ring.home(97)

    def test_single_node_owns_everything(self):
        ring = HashRing()
        ring.add("a")
        assert all(ring.home(m) == "a" for m in range(2, 50))

    def test_replication_returns_distinct_nodes(self):
        ring = HashRing()
        for name in ("a", "b", "c", "d"):
            ring.add(name)
        owners = ring.nodes_for((1 << 127) - 1, 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_count_clamps_to_membership(self):
        ring = HashRing()
        ring.add("a")
        ring.add("b")
        assert sorted(ring.nodes_for(97, 10)) == ["a", "b"]

    def test_placement_is_deterministic(self):
        ring1, ring2 = HashRing(), HashRing()
        for ring in (ring1, ring2):
            for name in ("x", "y", "z"):
                ring.add(name)
        moduli = [(1 << 64) - k for k in range(1, 200)]
        assert [ring1.home(m) for m in moduli] == [
            ring2.home(m) for m in moduli
        ]

    def test_join_rehomes_a_sliver_not_everything(self):
        """The consistent-hashing point: one join moves ~1/N of keys."""
        ring = HashRing()
        for name in ("a", "b", "c", "d"):
            ring.add(name)
        moduli = [(1 << 61) + 2 * k + 1 for k in range(500)]
        before = {m: ring.home(m) for m in moduli}
        ring.add("e")
        moved = sum(1 for m in moduli if ring.home(m) != before[m])
        # Expect ~1/5 moved; anything under half proves it is not the
        # modulus-N cliff (which re-homes ~4/5).
        assert 0 < moved < len(moduli) / 2
        # And every moved key went *to* the new node.
        assert all(
            ring.home(m) == "e" for m in moduli if ring.home(m) != before[m]
        )

    def test_remove_is_the_mirror_of_add(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        moduli = list(range(3, 400, 2))
        before = {m: ring.home(m) for m in moduli}
        ring.add("d")
        ring.remove("d")
        assert {m: ring.home(m) for m in moduli} == before

    def test_membership_ops_idempotent(self):
        ring = HashRing(vnodes=8)
        ring.add("a")
        ring.add("a")
        ring.remove("missing")
        assert ring.nodes == ["a"]

    def test_vnodes_validation(self):
        with pytest.raises(ConfigurationError):
            HashRing(vnodes=0)

    def test_load_split_is_roughly_even(self):
        ring = HashRing()
        for name in ("a", "b", "c", "d"):
            ring.add(name)
        counts = {"a": 0, "b": 0, "c": 0, "d": 0}
        for k in range(2000):
            counts[ring.home((1 << 50) + k)] += 1
        # Virtual nodes keep the skew bounded: no node owns more than
        # twice its fair share.
        assert max(counts.values()) < 2 * (2000 / 4)


class TestSloCatalog:
    def test_default_catalog_tiers(self):
        catalog = SloCatalog()
        assert [catalog.resolve(name).name for name in ("gold", "silver")] == [
            "gold", "silver",
        ]
        assert catalog.default.name == "best-effort"
        gold = catalog.resolve("gold")
        assert gold.deadline_ms == 2000.0 and gold.priority == 2

    def test_none_resolves_to_loosest_tier(self):
        catalog = SloCatalog()
        assert catalog.resolve(None).name == "best-effort"
        assert catalog.default.deadline_ms is None

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(ConfigurationError, match="platinum"):
            SloCatalog().resolve("platinum")

    def test_custom_catalog(self):
        catalog = SloCatalog(
            [SloClass("fast", 100.0, 1), SloClass("slow", None, 0)]
        )
        assert catalog.resolve("fast").deadline_ms == 100.0
        assert catalog.default.name == "slow"

    def test_duplicate_and_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SloCatalog([SloClass("a"), SloClass("a")])
        with pytest.raises(ConfigurationError, match="at least one"):
            SloCatalog([])

    def test_class_validation(self):
        with pytest.raises(ConfigurationError):
            SloClass("", 100.0)
        with pytest.raises(ConfigurationError):
            SloClass("bad", -1.0)

    def test_as_dict_roundtrips_names(self):
        payload = SloCatalog().as_dict()
        assert set(payload) == {slo.name for slo in DEFAULT_SLO_CLASSES}
        assert payload["gold"]["priority"] == 2


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=lambda: now[0])
        assert bucket.try_acquire(5.0)          # full burst spent
        assert not bucket.try_acquire(1.0)      # empty -> reject
        now[0] = 0.3                            # 3 tokens refilled
        assert bucket.try_acquire(3.0)
        assert not bucket.try_acquire(0.5)

    def test_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=4.0, clock=lambda: now[0])
        now[0] = 1000.0
        assert bucket.tokens == 4.0

    def test_request_bigger_than_burst_always_rejected(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: 0.0)
        assert not bucket.try_acquire(3.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)


class TestTenantRateLimiter:
    def test_disabled_by_default(self):
        limiter = TenantRateLimiter()
        assert not limiter.enabled
        assert all(limiter.allow("t", 10 ** 9) for _ in range(100))

    def test_tenants_are_isolated(self):
        now = [0.0]
        limiter = TenantRateLimiter(
            rate_per_tenant=10.0, burst_per_tenant=4.0, clock=lambda: now[0]
        )
        assert limiter.allow("a", 4.0)
        assert not limiter.allow("a", 1.0)      # a is drained...
        assert limiter.allow("b", 4.0)          # ...b is untouched

    def test_burst_defaults_to_twice_rate(self):
        limiter = TenantRateLimiter(rate_per_tenant=8.0)
        assert limiter.burst_per_tenant == 16.0

    def test_describe_reports_levels(self):
        now = [0.0]
        limiter = TenantRateLimiter(
            rate_per_tenant=10.0, burst_per_tenant=6.0, clock=lambda: now[0]
        )
        limiter.allow("acme", 2.0)
        description = limiter.describe()
        assert description["enabled"] is True
        assert description["tenants"]["acme"] == 4.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantRateLimiter(rate_per_tenant=-1.0)
