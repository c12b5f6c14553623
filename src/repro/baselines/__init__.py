"""Prior-work PIM designs (and this work) used by the Table 3 / Figure 6 comparisons."""

from repro.baselines.base import (
    PimDesignSpec,
    get_design,
    register_design,
)
from repro.baselines.bpntt import BPNTT, bpntt_cycles, bpntt_rows, bpntt_transform_cycles
from repro.baselines.mentt import MENTT, mentt_rows
from repro.baselines.modsram_entry import MODSRAM, modsram_rows
from repro.baselines.reram import CRYPTOPIM, RMNTT, XPOLY

__all__ = [
    "BPNTT",
    "CRYPTOPIM",
    "MENTT",
    "MODSRAM",
    "PimDesignSpec",
    "RMNTT",
    "XPOLY",
    "bpntt_cycles",
    "bpntt_rows",
    "bpntt_transform_cycles",
    "get_design",
    "mentt_rows",
    "modsram_rows",
    "register_design",
]
