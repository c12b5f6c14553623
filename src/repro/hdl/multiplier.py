"""The HDL co-simulation tier behind the multiplier/backend interfaces.

``modsram-hdl`` runs every multiplication through the event-driven
simulator over the elaborated RTL (:class:`~repro.hdl.eventsim.HdlModSRAM`)
— the slowest tier, but the only one whose cycle reports are *measured from
a structural hardware description* rather than modeled.  Products and
per-phase cycle counts are asserted (by the parity test suite) to be
identical to every other tier.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import register_multiplier
from repro.engine.backend import MultiplierBackend
from repro.hdl.eventsim import HdlModSRAM
from repro.modsram.config import ModSRAMConfig
from repro.modsram.multiplier import ModSRAMMultiplier

__all__ = ["ModSRAMHdlMultiplier", "ModSRAMHdlBackend"]


@register_multiplier
class ModSRAMHdlMultiplier(ModSRAMMultiplier):
    """Runs every multiplication through the RTL event simulator.

    Provisioning a width elaborates the macro RTL and compiles it for
    event-driven execution.
    """

    name = "modsram-hdl"
    description = (
        "HDL co-simulation tier: the elaborated ModSRAM RTL executed by the "
        "event-driven simulator, cycle counts measured from the netlist."
    )

    def _new_simulator(self, config: ModSRAMConfig) -> HdlModSRAM:
        return HdlModSRAM(config)


class ModSRAMHdlBackend(MultiplierBackend):
    """The HDL co-simulation tier (``modsram-hdl``) behind the Engine API.

    Context creation elaborates the macro RTL for the modulus bitwidth and
    compiles it for event-driven execution; the analytic ``cycles()`` model
    (identical by construction, enforced by the parity suite) keeps backend
    metadata queries cheap.
    """

    def __init__(self, config: Optional[ModSRAMConfig] = None) -> None:
        kwargs = {"config": config} if config is not None else {}
        super().__init__(
            "modsram-hdl", kind="accelerator", info_fidelity="hdl", **kwargs
        )
