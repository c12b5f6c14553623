"""RTL elaboration + event-driven co-simulation for the ModSRAM macro.

The third fidelity tier: the R4CSA-LUT schedule of
:mod:`repro.modsram.kernel` elaborated into a structural hardware IR
(:mod:`repro.hdl.ir` / :mod:`repro.hdl.elaborate`), emitted as
synthesizable Verilog-2001 (:mod:`repro.hdl.verilog`) and executed by a
pure-Python event-driven simulator (:mod:`repro.hdl.eventsim`) whose
per-phase cycle counts are asserted equal to
:class:`~repro.modsram.analytical.AnalyticalCostModel` field by field —
a machine-checked cycle model instead of a trusted one.

Entry points:

* :func:`~repro.hdl.elaborate.elaborate_macro` — build the macro IR for a
  :class:`~repro.modsram.config.ModSRAMConfig`;
* :func:`~repro.hdl.verilog.emit_design` — deterministic Verilog files;
* :class:`~repro.hdl.eventsim.HdlModSRAM` — the co-simulation tier
  (``Fidelity.HDL`` / the ``modsram-hdl`` backend).
"""

from repro.hdl.elaborate import MacroDesign, STATE_ENCODING, elaborate_macro
from repro.hdl.eventsim import (
    EventSimulator,
    HdlMacroSim,
    HdlModSRAM,
    HdlRunTrace,
)
from repro.hdl.ir import HdlError, Module
from repro.hdl.verilog import emit_design, emit_module

__all__ = [
    "MacroDesign",
    "STATE_ENCODING",
    "elaborate_macro",
    "EventSimulator",
    "HdlMacroSim",
    "HdlModSRAM",
    "HdlRunTrace",
    "HdlError",
    "Module",
    "emit_design",
    "emit_module",
]
