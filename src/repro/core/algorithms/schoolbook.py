"""Schoolbook reference multiplier.

This is the oracle every other algorithm is tested against: multiply with
Python's arbitrary-precision integers and reduce with ``%``.  It has no
hardware interpretation; it exists so that correctness of the hardware-
oriented algorithms never rests on comparing them only to each other.

It is also the serving default (``EngineSpec().backend``): Python's
C-level big-int multiply is the fastest exact kernel available, so pool
shards and fleet workers run it unless a caller names another backend.
"""

from __future__ import annotations

from repro.core.algorithms.base import ModularMultiplier, register_multiplier

__all__ = ["SchoolbookMultiplier"]


@register_multiplier
class SchoolbookMultiplier(ModularMultiplier):
    """Full multiplication followed by a single reduction (``a * b % p``)."""

    name = "schoolbook"
    description = (
        "Full product followed by one reduction (software oracle and "
        "serving default)."
    )
    direct_form = True

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        self.stats.full_additions += 1
        return (a * b) % modulus
