"""SLO classes: latency-target tiers mapped onto admission and batching.

A request does not carry raw scheduling knobs over the wire; it names an
*SLO class*, and the router resolves the class into the two mechanisms
the serving layer already has:

* the class's :attr:`SloClass.deadline_ms` becomes the request deadline,
  which the worker's :class:`~repro.service.server.Server` enforces at
  dispatch: a request that waited too long fails with
  :class:`~repro.errors.DeadlineError` instead of burning a core late
  (the server's batching holds no request back on a timer, so queueing
  behind busy execution is the only wait);
* the class's :attr:`SloClass.priority` becomes the request priority in
  the worker's per-tenant queues (higher dispatches first among ready
  jobs).

The default catalog is three tiers — ``gold`` (tight deadline, first in
queue), ``silver`` (loose deadline), ``best-effort`` (no deadline) — and
routers may be configured with their own catalog.  Per-SLO latency is
tracked separately in :class:`~repro.cluster.metrics.ClusterMetrics`, so
a fleet report shows whether each tier actually met its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError

__all__ = ["SloClass", "SloCatalog", "DEFAULT_SLO_CLASSES"]


@dataclass(frozen=True)
class SloClass:
    """One latency tier: a name, a deadline target and a queue priority."""

    name: str
    #: Per-request deadline the worker's batcher honors (``None`` = no
    #: deadline; the request waits as long as it takes).
    deadline_ms: Optional[float] = None
    #: Priority in the worker server's tenant queues (higher first).
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an SLO class needs a name")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"SLO {self.name!r}: deadline_ms must be positive, got "
                f"{self.deadline_ms}"
            )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (welcome frames, metrics rollups)."""
        return {
            "name": self.name,
            "deadline_ms": self.deadline_ms,
            "priority": self.priority,
        }


#: The default three-tier catalog.  Deadlines are generous because the
#: arithmetic is pure Python: the tiers order traffic, they do not
#: promise silicon latencies.
DEFAULT_SLO_CLASSES = (
    SloClass("gold", deadline_ms=2_000.0, priority=2),
    SloClass("silver", deadline_ms=10_000.0, priority=1),
    SloClass("best-effort", deadline_ms=None, priority=0),
)


class SloCatalog:
    """The SLO classes one router serves, resolvable by name."""

    def __init__(self, classes: Iterable[SloClass] = DEFAULT_SLO_CLASSES) -> None:
        self._classes: Dict[str, SloClass] = {}
        for slo in classes:
            if slo.name in self._classes:
                raise ConfigurationError(f"duplicate SLO class {slo.name!r}")
            self._classes[slo.name] = slo
        if not self._classes:
            raise ConfigurationError("an SLO catalog needs at least one class")

    @property
    def default(self) -> SloClass:
        """The class an SLO-less request gets: the *last* (loosest) tier."""
        return list(self._classes.values())[-1]

    def resolve(self, name: Optional[str]) -> SloClass:
        """The class a request named (``None`` = the loosest tier)."""
        if name is None:
            return self.default
        try:
            return self._classes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown SLO class {name!r}; catalog: {list(self._classes)}"
            ) from None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly catalog (sent to clients in the welcome frame)."""
        return {name: slo.as_dict() for name, slo in self._classes.items()}

    def __repr__(self) -> str:
        return f"SloCatalog({list(self._classes)})"
