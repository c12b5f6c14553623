"""Fidelity-tier selection for the layered simulation core.

One algorithm (:mod:`repro.modsram.kernel`), interchangeable execution
tiers.  The per-step kernel body drives the cycle tier; the analytical tier
runs the same recurrence as one word-level loop
(:meth:`~repro.modsram.analytical.FastHost.multiply`), pinned to the
per-step body by ``tests/modsram/test_fast_tier_pins.py`` and checked
against the cycle tier in ``tests/modsram/test_fidelity.py``.

``analytical``
    Product + exact closed-form cycle/energy reports; no SRAM substrate,
    no per-cycle events.
    (:class:`~repro.modsram.analytical.AnalyticalModSRAM`)
``cycle``
    The word-line-accurate model with the controller FSM, the logic-SA
    sense amplifiers and opt-in trace sinks, one kernel step per cycle.
    (:class:`~repro.modsram.accelerator.ModSRAMAccelerator`)
``hdl``
    Event-driven co-simulation of the elaborated RTL: the same schedule as
    structural IR, compiled to Python source by the :mod:`repro.hdl` event
    simulator, settled in one pass per cycle, with register semantics.
    (:class:`~repro.hdl.eventsim.HdlModSRAM`)

All three expose ``multiply(a, b, modulus)`` / ``multiply_many`` returning
a :class:`~repro.modsram.report.MultiplicationResult`: a ``.product`` and a
``.report`` (:class:`~repro.modsram.report.CycleReport`) that the tests
require to match field by field.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.analytical import AnalyticalModSRAM
from repro.modsram.config import ModSRAMConfig

__all__ = ["Fidelity", "build_simulator"]


class Fidelity(str, Enum):
    """How much of the hardware one simulation run resolves."""

    ANALYTICAL = "analytical"
    CYCLE = "cycle"
    HDL = "hdl"

    @classmethod
    def coerce(cls, value: Union[str, "Fidelity"]) -> "Fidelity":
        """Accept enum members or their string names, with a clear error."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown fidelity {value!r}; choose from "
                f"{[member.value for member in cls]}"
            ) from None


def build_simulator(
    fidelity: Union[str, Fidelity] = Fidelity.CYCLE,
    config: Optional[ModSRAMConfig] = None,
):
    """Instantiate the simulator for a fidelity tier (string or enum)."""
    tier = Fidelity.coerce(fidelity)
    if tier is Fidelity.HDL:
        # imported lazily: repro.hdl depends on repro.modsram, and eagerly
        # importing it here would close an import cycle.
        from repro.hdl.eventsim import HdlModSRAM

        return HdlModSRAM(config)
    if tier is Fidelity.ANALYTICAL:
        return AnalyticalModSRAM(config)
    return ModSRAMAccelerator(config)
