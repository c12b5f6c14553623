"""Consistent-hash placement of moduli across cluster nodes.

The pool's ``shard_for(modulus) % workers`` routing breaks down the
moment membership changes: one node joining re-homes *every* modulus,
throwing away every warm per-modulus context in the fleet.  A consistent
hash ring re-homes only ~1/N of the key space per membership change, so
node churn costs the fleet a sliver of its cache warmth, not all of it.

Each node owns :attr:`HashRing.vnodes` points on a 64-bit ring (virtual
nodes smooth the load split); a modulus hashes to a ring position and is
owned by the next node points clockwise.  :meth:`HashRing.nodes_for`
returns the first *k distinct* nodes clockwise — the home node plus its
``k-1`` replica candidates, which is how the router spreads a *hot*
modulus across several warm caches instead of melting one node.

Hashing is :func:`hashlib.sha256`-based (like the pool's ``shard_for``):
deterministic across processes, runs and interpreters, so placement is
reproducible in tests and stable across router restarts with the same
membership.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = ["HashRing", "stable_hash"]


def stable_hash(value: object) -> int:
    """A process-stable 64-bit hash of an int or string key."""
    if isinstance(value, int):
        data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
    else:
        data = str(value).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Membership operations (:meth:`add` / :meth:`remove`) rebuild the
    sorted point list — O(total vnodes) — which is fine at fleet scale
    (nodes join and leave rarely; lookups happen per request).
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        self._members: Dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[str]:
        """Current members, sorted by name."""
        return sorted(self._members)

    def add(self, node: str) -> None:
        """Add a member (idempotent)."""
        if node in self._members:
            return
        self._members[node] = True
        self._rebuild()

    def remove(self, node: str) -> None:
        """Remove a member (idempotent)."""
        if node not in self._members:
            return
        del self._members[node]
        self._rebuild()

    def _rebuild(self) -> None:
        points = []
        for node in self._members:
            for replica in range(self.vnodes):
                points.append((stable_hash(f"{node}#{replica}"), node))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def nodes_for(self, modulus: int, count: int = 1) -> List[str]:
        """The first ``count`` distinct owners clockwise of a modulus.

        Index 0 is the *home* node; the rest are the replica candidates
        a hot modulus may spread across.  Fewer than ``count`` members
        simply yields every member (placement still works on a fleet of
        one).
        """
        if not self._points:
            return []
        count = min(max(count, 1), len(self._members))
        start = bisect.bisect_right(self._keys, stable_hash(modulus))
        owners: List[str] = []
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node not in owners:
                owners.append(node)
                if len(owners) == count:
                    break
        return owners

    def home(self, modulus: int) -> str:
        """The home node of a modulus (raises on an empty ring)."""
        owners = self.nodes_for(modulus, 1)
        if not owners:
            raise ConfigurationError("hash ring has no members")
        return owners[0]

    def __repr__(self) -> str:
        return f"HashRing(nodes={len(self._members)}, vnodes={self.vnodes})"
