"""Common description of the prior-work PIM designs used in Table 3.

Table 3 of the paper compares ModSRAM against five published PIM designs
(MeNTT, BP-NTT, RM-NTT, CryptoPIM, X-Poly).  Each baseline is captured as a
:class:`PimDesignSpec` — the static facts the table reports (technology,
cell type, array size, frequency, native bitwidths, area) — plus, for the
designs where the paper derives a scaled per-multiplication cycle count, a
cycle model and a row-usage model implemented in the per-design module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, OperandRangeError

__all__ = ["PimDesignSpec", "register_design", "get_design"]


@dataclass(frozen=True)
class PimDesignSpec:
    """Static facts about one PIM design (one column of Table 3)."""

    key: str
    label: str
    application: str
    computation_method: str
    technology_nm: int
    cell_type: str
    array_size: str
    frequency_mhz: float
    native_bitwidths: Tuple[int, ...]
    area_mm2: Optional[float]
    reference: str
    #: Cycles of one modular multiplication scaled to ``n``-bit operands
    #: (``None`` when the source work does not expose a per-multiplication
    #: cycle count, as for the ReRAM designs in Table 3).
    cycle_model: Optional[Callable[[int], int]] = None
    #: SRAM rows (word lines) the design needs to hold one ``n``-bit
    #: modular multiplication's working set (used by Figure 6).
    row_model: Optional[Callable[[int], int]] = None
    notes: str = ""

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Scaled per-multiplication cycle count at ``bitwidth`` bits."""
        if bitwidth <= 0:
            raise OperandRangeError(f"bitwidth must be positive, got {bitwidth}")
        if self.cycle_model is None:
            return None
        return self.cycle_model(bitwidth)

    def rows_required(self, bitwidth: int) -> Optional[int]:
        """Word lines needed for one multiplication's working set."""
        if bitwidth <= 0:
            raise OperandRangeError(f"bitwidth must be positive, got {bitwidth}")
        if self.row_model is None:
            return None
        return self.row_model(bitwidth)

    def as_row(self, bitwidth: int) -> Dict[str, object]:
        """One Table 3 column rendered as a dictionary."""
        return {
            "design": self.label,
            "application": self.application,
            "method": self.computation_method,
            "technology_nm": self.technology_nm,
            "cell_type": self.cell_type,
            "array_size": self.array_size,
            "frequency_mhz": self.frequency_mhz,
            "native_bitwidths": list(self.native_bitwidths),
            "cycles": self.cycles(bitwidth),
            "area_mm2": self.area_mm2,
        }


_REGISTRY: Dict[str, PimDesignSpec] = {}


def register_design(spec: PimDesignSpec) -> PimDesignSpec:
    """Add a design to the global registry (used by the per-design modules)."""
    if spec.key in _REGISTRY:
        raise ConfigurationError(f"design {spec.key!r} already registered")
    _REGISTRY[spec.key] = spec
    return spec


def get_design(key: str) -> PimDesignSpec:
    """Look up a registered design by key."""
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown design {key!r}; available: {sorted(_REGISTRY)}"
        ) from None

