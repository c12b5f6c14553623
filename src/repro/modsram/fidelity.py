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
    sense amplifiers and an opt-in per-cycle trace, one kernel step per
    cycle.
    (:class:`~repro.modsram.accelerator.ModSRAMAccelerator`)
``hdl``
    Event-driven co-simulation of the elaborated RTL: the same schedule as
    structural IR, compiled to Python source by the :mod:`repro.hdl` event
    simulator, settled in one pass per cycle, with register semantics.
    (:class:`~repro.hdl.eventsim.HdlModSRAM`)

All three expose ``multiply(a, b, modulus)``, returning a
:class:`~repro.modsram.report.MultiplicationResult`: a ``.product`` and a
``.report`` (:class:`~repro.modsram.report.CycleReport`) that must match
field by field.  The analytical and cycle tiers also expose
``energy_report()``, which must match too; the RTL tier has none.
:func:`cross_check` is the one place those checks are made: every exhibit,
the DSE probe and the equivalence checker run their tiers through it (or
through its raising form :func:`checked_multiply`).  :func:`probe_multiply`
is the one seeded probe the ``design-point`` exhibit and the DSE probe
share.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, TierMismatchError
from repro.modsram.accelerator import ModSRAMAccelerator
from repro.modsram.analytical import AnalyticalModSRAM
from repro.modsram.config import ModSRAMConfig
from repro.modsram.report import MultiplicationResult

__all__ = [
    "Fidelity",
    "TierCheck",
    "build_simulator",
    "checked_multiply",
    "cross_check",
    "probe_multiply",
]


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


def _hdl_simulator(config: Optional[ModSRAMConfig]):
    # imported lazily: repro.hdl depends on repro.modsram, and eagerly
    # importing it here would close an import cycle.
    from repro.hdl.eventsim import HdlModSRAM

    return HdlModSRAM(config)


#: The simulator of each tier: the one place that says which class runs
#: which tier.  Every simulator class and multiplier adapter names its own
#: tier (``tier``), and the engine backends read it from their adapter.
_SIMULATORS: Dict[Fidelity, Callable[[Optional[ModSRAMConfig]], object]] = {
    Fidelity.ANALYTICAL: AnalyticalModSRAM,
    Fidelity.CYCLE: ModSRAMAccelerator,
    Fidelity.HDL: _hdl_simulator,
}


def build_simulator(
    fidelity: Union[str, Fidelity] = Fidelity.CYCLE,
    config: Optional[ModSRAMConfig] = None,
):
    """Instantiate the simulator for a fidelity tier (string or enum)."""
    return _SIMULATORS[Fidelity.coerce(fidelity)](config)


@dataclass(frozen=True)
class TierCheck:
    """One operand pair run on several simulators, and what failed."""

    #: Each simulator's result, in the order the simulators were given.
    results: Tuple[MultiplicationResult, ...]
    #: Host seconds each simulator's ``multiply`` took.
    seconds: Tuple[float, ...]
    #: The failed checks: ``"<tier> product"`` when a product is not
    #: ``a * b % modulus``, ``"<tier> report"`` when a cycle report differs
    #: from the first simulator's, ``"<tier> energy"`` when an energy report
    #: differs from the first one taken.  Empty when every check passed.
    failed: Tuple[str, ...]


def cross_check(simulators: Sequence, a: int, b: int, modulus: int) -> TierCheck:
    """Multiply ``a * b mod modulus`` on every simulator and check each run.

    Every product is compared to the big-integer oracle, every
    :class:`~repro.modsram.report.CycleReport` field by field to the first
    simulator's, and the cumulative ``energy_report()`` of every simulator
    that has one to the first such report.  Simulators keep their LUT
    residency and their energy between calls, so reports only agree when
    the caller keeps the simulators in step (the same multiplications, in
    the same order).
    """
    oracle = a * b % modulus
    results: List[MultiplicationResult] = []
    seconds: List[float] = []
    failed: List[str] = []
    first_energy = None
    for simulator in simulators:
        began = time.perf_counter()
        result = simulator.multiply(a, b, modulus)
        seconds.append(time.perf_counter() - began)
        tier = simulator.tier
        if result.product != oracle:
            failed.append(f"{tier} product")
        if results and result.report != results[0].report:
            failed.append(f"{tier} report")
        if hasattr(simulator, "energy_report"):
            energy = simulator.energy_report()
            if first_energy is None:
                first_energy = energy
            elif energy != first_energy:
                failed.append(f"{tier} energy")
        results.append(result)
    return TierCheck(tuple(results), tuple(seconds), tuple(failed))


def checked_multiply(simulator, a: int, b: int, modulus: int) -> MultiplicationResult:
    """One multiplication on a fresh ``simulator``, checked, or an error.

    The run is cross-checked against a fresh
    :class:`~repro.modsram.analytical.AnalyticalModSRAM` at the simulator's
    configuration (the closed form in step with a simulator that has not
    run before): both products must equal ``a * b % modulus``, and the
    cycle reports and (when the simulator has one) the energy reports must
    agree field by field.  Returns the simulator's result; raises
    :class:`~repro.errors.TierMismatchError` naming the tier, the width and
    the operands otherwise.
    """
    reference = AnalyticalModSRAM(simulator.config)
    check = cross_check((reference, simulator), a, b, modulus)
    if check.failed:
        raise TierMismatchError(
            f"{simulator.tier} tier at {simulator.config.bitwidth} "
            f"bits failed {', '.join(check.failed)} for a={a:#x}, b={b:#x}, "
            f"modulus={modulus:#x}"
        )
    return check.results[1]


def probe_multiply(simulator, seed: int) -> MultiplicationResult:
    """One seeded :func:`checked_multiply` at the simulator's full width.

    The modulus is an odd number of exactly ``bitwidth`` bits and the
    multiplier has its top bit clear, as the paper schedule requires, so
    the probe is valid on a fresh simulator of any width and either range
    mode.
    """
    bits = simulator.config.bitwidth
    rng = random.Random(seed)
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    a = rng.randrange(modulus) >> 1
    b = rng.randrange(modulus)
    return checked_multiply(simulator, a, b, modulus)
