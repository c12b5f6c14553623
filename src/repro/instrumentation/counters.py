"""Hierarchical operation counters.

The paper's application-level argument (Figure 7) is about operation counts:
how many modular multiplications, memory accesses and register writes the
ZKP kernels perform, and which of those ModSRAM eliminates.  Every subsystem
in this library that executes work therefore reports into an
:class:`OperationCounter`, so the analysis layer can aggregate counts the
same way for the reference software, for the PIM model and for the
application kernels.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["OperationCounter", "ScopedCounter"]


class OperationCounter:
    """A named multiset of operation counts with optional nested scopes.

    Counts are plain string-keyed integers (``"modmul"``, ``"memory_read"``,
    ``"register_write"`` ...).  Scopes let a kernel attribute counts to a
    phase (e.g. ``"ntt/stage3"``) while still rolling everything up into the
    totals.
    """

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self._totals: Counter = Counter()
        self._scoped: Dict[str, Counter] = {}
        self._scope_stack: List[str] = []

    # ------------------------------------------------------------------ #
    # counting
    # ------------------------------------------------------------------ #
    def add(self, operation: str, amount: int = 1) -> None:
        """Add ``amount`` occurrences of ``operation``."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        self._totals[operation] += amount
        if self._scope_stack:
            scope = self._scope_stack[-1]
            scoped = self._scoped.get(scope)
            if scoped is None:
                scoped = self._scoped[scope] = Counter()
            scoped[operation] += amount

    def increment(self, operation: str) -> None:
        """Add a single occurrence of ``operation``."""
        self.add(operation, 1)

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Attribute counts recorded inside the ``with`` block to ``name``."""
        self._scope_stack.append(name)
        try:
            yield
        finally:
            self._scope_stack.pop()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def count(self, operation: str) -> int:
        """Total occurrences of ``operation``."""
        return self._totals.get(operation, 0)

    def total(self) -> int:
        """Sum of every counter."""
        return sum(self._totals.values())

    def operations(self) -> List[str]:
        """Sorted operation names seen so far."""
        return sorted(self._totals)

    def as_dict(self) -> Dict[str, int]:
        """All totals as a plain dictionary."""
        return dict(sorted(self._totals.items()))

    def scoped(self, scope: str) -> Dict[str, int]:
        """Counts attributed to one scope."""
        return dict(sorted(self._scoped.get(scope, Counter()).items()))

    def scopes(self) -> List[str]:
        """Sorted scope names seen so far."""
        return sorted(self._scoped)

    # ------------------------------------------------------------------ #
    # management
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear every counter and scope."""
        self._totals.clear()
        self._scoped.clear()

    def merged_with(self, other: "OperationCounter") -> "OperationCounter":
        """Return a new counter with summed totals (scopes are kept separate)."""
        merged = OperationCounter(name=f"{self.name}+{other.name}")
        merged._totals = self._totals + other._totals
        for scope, counts in self._scoped.items():
            merged._scoped[scope] = Counter(counts)
        for scope, counts in other._scoped.items():
            merged._scoped.setdefault(scope, Counter())
            merged._scoped[scope] += counts
        return merged

    def __repr__(self) -> str:
        return f"OperationCounter(name={self.name!r}, totals={dict(self._totals)})"


@dataclass
class ScopedCounter:
    """A lightweight view adding counts to a parent under a fixed scope."""

    parent: OperationCounter
    scope_name: str

    def add(self, operation: str, amount: int = 1) -> None:
        """Add ``amount`` of ``operation`` under this view's scope."""
        with self.parent.scope(self.scope_name):
            self.parent.add(operation, amount)

    def increment(self, operation: str) -> None:
        """Add one occurrence of ``operation`` under this view's scope."""
        self.add(operation, 1)
