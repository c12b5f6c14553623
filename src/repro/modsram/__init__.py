"""ModSRAM: the 8T SRAM PIM accelerator co-designed with R4CSA-LUT.

The package is a *layered simulation core*: the R4CSA-LUT algorithm at
two fidelity tiers —
``analytical`` (:class:`AnalyticalModSRAM`: exact closed-form cycle/energy
reports) and ``cycle`` (:class:`ModSRAMAccelerator`: the word-line-accurate
SRAM model, with an opt-in per-cycle trace).
:func:`build_simulator` selects a tier by name, the RTL event simulator of
:mod:`repro.hdl` (``hdl``) included.  The cycle tier runs the per-step
body of :mod:`repro.modsram.kernel`; the analytical tier runs the same
recurrence as one word-level loop (:meth:`FastHost.multiply`).  On top of
the analytical tier, :class:`Chip` scales the macro out to an N-macro chip
whose scheduler dispatches multiplication streams with LUT-reuse-aware
placement.  The surrounding modules provide the memory map, the
near-memory datapath, the controller FSM, the area model behind Figure 5
and the multiplier adapters (``modsram``, ``modsram-fast``,
``modsram-chip``, ``modsram-hdl``) that plug the tiers into any code
written against the generic multiplier interface.
"""

from repro.modsram.accelerator import (
    CycleReport,
    ModSRAMAccelerator,
    MultiplicationResult,
)
from repro.modsram.analytical import (
    AnalyticalCostModel,
    AnalyticalModSRAM,
    FastHost,
)
from repro.modsram.area import (
    PAPER_AREA_MM2,
    PAPER_AREA_OVERHEAD_PERCENT,
    PAPER_BREAKDOWN_PERCENT,
    AreaBreakdown,
    AreaModel,
    AreaParameters,
)
from repro.modsram.chip import (
    SCHEDULER_POLICIES,
    Chip,
    ChipGraphRun,
    ChipSchedule,
    ChipScheduler,
    MultiplicationJob,
)
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.modsram.geometry import SUPPORTED_RADICES, MacroGeometry
from repro.modsram.controller import Controller, ControllerState, CycleBudget
from repro.modsram.datapath import DatapathStats, NearMemoryDatapath
from repro.modsram.fidelity import Fidelity, build_simulator
from repro.modsram.kernel import KernelOutcome, LutResidency, run_kernel
from repro.modsram.memory_map import MemoryMap, MemoryUtilization
from repro.modsram.multiplier import (
    ModSRAMChipMultiplier,
    ModSRAMFastMultiplier,
    ModSRAMHdlMultiplier,
    ModSRAMMultiplier,
)
from repro.modsram.scheduler import (
    PointOperationSchedule,
    PointOperationScheduler,
    ScheduledMultiplication,
)
from repro.modsram.trace import CycleEvent, ExecutionTrace, Phase

__all__ = [
    "AnalyticalCostModel",
    "AnalyticalModSRAM",
    "AreaBreakdown",
    "AreaModel",
    "AreaParameters",
    "Chip",
    "ChipGraphRun",
    "ChipSchedule",
    "ChipScheduler",
    "MacroGeometry",
    "SCHEDULER_POLICIES",
    "SUPPORTED_RADICES",
    "Controller",
    "ControllerState",
    "CycleBudget",
    "CycleEvent",
    "CycleReport",
    "DatapathStats",
    "ExecutionTrace",
    "FastHost",
    "Fidelity",
    "KernelOutcome",
    "LutResidency",
    "MemoryMap",
    "MemoryUtilization",
    "ModSRAMAccelerator",
    "ModSRAMChipMultiplier",
    "ModSRAMConfig",
    "ModSRAMFastMultiplier",
    "ModSRAMHdlMultiplier",
    "ModSRAMMultiplier",
    "MultiplicationJob",
    "MultiplicationResult",
    "NearMemoryDatapath",
    "PAPER_AREA_MM2",
    "PAPER_AREA_OVERHEAD_PERCENT",
    "PAPER_BREAKDOWN_PERCENT",
    "PAPER_CONFIG",
    "Phase",
    "PointOperationSchedule",
    "PointOperationScheduler",
    "ScheduledMultiplication",
    "build_simulator",
    "run_kernel",
]
