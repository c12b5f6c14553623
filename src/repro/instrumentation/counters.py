"""Operation counters.

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
from typing import Dict

__all__ = ["OperationCounter"]


class OperationCounter:
    """A named tally of operation counts.

    Counts are plain string-keyed integers (``"modmul"``, ``"memory_read"``,
    ``"register_write"`` ...), kept in the order each operation was first
    counted.
    """

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self._totals: Counter = Counter()

    def add(self, operation: str, amount: int = 1) -> None:
        """Add ``amount`` occurrences of ``operation``."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        self._totals[operation] += amount

    def increment(self, operation: str) -> None:
        """Add a single occurrence of ``operation``."""
        self.add(operation, 1)

    def count(self, operation: str) -> int:
        """Total occurrences of ``operation``."""
        return self._totals.get(operation, 0)

    def as_dict(self) -> Dict[str, int]:
        """All totals as a plain dictionary."""
        return dict(sorted(self._totals.items()))

    def reset(self) -> None:
        """Clear every counter."""
        self._totals.clear()

    def __repr__(self) -> str:
        return f"OperationCounter(name={self.name!r}, totals={dict(self._totals)})"
