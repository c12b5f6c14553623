"""8T SRAM processing-in-memory substrate.

Behavioural models of the pieces ModSRAM is built from: bit cells, the
array with its separate read/write ports and multi-row activation, the
logic-SA sense-amplifier module that computes XOR3/MAJ in memory, word-line
decoders, and the timing/energy models that stand in for the paper's
circuit-level simulation.
"""

from repro.sram.array import BitlineReadout, SramArray
from repro.sram.cell import EightTransistorCell, SixTransistorCell, SramCell
from repro.sram.decoder import DecoderBank, WordlineDecoder
from repro.sram.energy import DEFAULT_65NM_ENERGY, EnergyBreakdown, EnergyModel
from repro.sram.sense_amp import (
    LatchSenseAmplifier,
    LogicSenseAmpModule,
    LogicSenseAmpResult,
    SenseAmpParameters,
)
from repro.sram.stats import ArrayStats
from repro.sram.timing import DEFAULT_65NM_TIMING, TimingModel

__all__ = [
    "ArrayStats",
    "BitlineReadout",
    "DEFAULT_65NM_ENERGY",
    "DEFAULT_65NM_TIMING",
    "DecoderBank",
    "EightTransistorCell",
    "EnergyBreakdown",
    "EnergyModel",
    "LatchSenseAmplifier",
    "LogicSenseAmpModule",
    "LogicSenseAmpResult",
    "SenseAmpParameters",
    "SixTransistorCell",
    "SramArray",
    "SramCell",
    "TimingModel",
    "WordlineDecoder",
]
