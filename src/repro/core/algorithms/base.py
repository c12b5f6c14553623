"""Common interface for modular-multiplication algorithms.

Every algorithm in this package — the paper's R4CSA-LUT, the interleaved and
radix-4 baselines it builds on, and the Montgomery/Barrett alternatives it
argues against — implements :class:`ModularMultiplier`.  Downstream code
(the ECC field layer, the ZKP kernels, the benchmark harness) is written
against this interface so any algorithm, including the cycle-accurate
ModSRAM accelerator adapter, can be swapped in as the arithmetic backend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

from repro.errors import ConfigurationError, ModulusError, OperandRangeError

__all__ = [
    "MultiplierStats",
    "ModularMultiplier",
    "register_multiplier",
    "get_multiplier",
    "available_multipliers",
]


@dataclass
class MultiplierStats:
    """Operation counts accumulated by a multiplier instance.

    The counts model the quantities the paper reasons about: loop iterations,
    word-level additions/subtractions (each of which implies a full carry
    propagation in hardware), carry-save additions (which do not), shifts,
    comparisons and table look-ups.
    """

    multiplications: int = 0
    iterations: int = 0
    full_additions: int = 0
    subtractions: int = 0
    carry_save_additions: int = 0
    shifts: int = 0
    comparisons: int = 0
    lut_lookups: int = 0
    precomputations: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary (stable key order)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def merged_with(self, other: "MultiplierStats") -> "MultiplierStats":
        """Return a new stats object with element-wise summed counters."""
        merged = MultiplierStats()
        for name in self.__dataclass_fields__:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


class ModularMultiplier(abc.ABC):
    """Abstract modular multiplier ``(a, b, p) -> a * b mod p``.

    Subclasses implement :meth:`_multiply`; the public :meth:`multiply`
    validates operands, keeps statistics and handles the trivial cases so
    that every algorithm is exercised under identical preconditions
    (``0 <= a, b < p``, as required by the paper's algorithms).
    """

    #: Short machine-readable identifier used by the registry.
    name: str = "abstract"
    #: Human-readable description used in reports.
    description: str = ""
    #: Whether results come out in direct (non-Montgomery) form.
    direct_form: bool = True

    def __init__(self) -> None:
        self.stats = MultiplierStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def multiply(self, a: int, b: int, modulus: int) -> int:
        """Return ``a * b mod modulus`` after validating the operands."""
        self._validate_operands(a, b, modulus)
        self.stats.multiplications += 1
        return self._multiply(a, b, modulus)

    def reset_stats(self) -> None:
        """Clear the accumulated operation counters."""
        self.stats.reset()

    def prepare(self, modulus: int) -> None:
        """Eagerly derive any per-modulus precomputation.

        The engine layer calls this once when a ``(backend, modulus)``
        context enters the cache so that Montgomery/Barrett constants,
        overflow LUTs and accelerator sizing are built before the first
        multiplication instead of lazily inside it.  Algorithms without
        per-modulus state inherit this no-op.

        Contract (relied on by the serving layers, regression-tested in
        ``tests/core/test_prepare_concurrency.py``):

        * **idempotent** — calling ``prepare`` again with the same modulus
          is a cheap no-op that reuses the existing precomputation;
        * **thread-safe** — concurrent ``prepare`` calls on one instance
          must build the per-modulus state exactly once and leave the
          instance consistent, so executors may warm shared multipliers
          from worker threads without external locking.
        """

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Analytic cycle count for one multiplication at ``bitwidth`` bits.

        Returns ``None`` when the algorithm has no meaningful hardware cycle
        model (e.g. the schoolbook reference).
        """
        return None

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _multiply(self, a: int, b: int, modulus: int) -> int:
        """Algorithm body; operands are already validated."""

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_operands(a: int, b: int, modulus: int) -> None:
        if modulus <= 2:
            raise ModulusError(f"modulus must be greater than 2, got {modulus}")
        if not 0 <= a < modulus:
            raise OperandRangeError(
                f"operand a must satisfy 0 <= a < p, got a={a}, p={modulus}"
            )
        if not 0 <= b < modulus:
            raise OperandRangeError(
                f"operand b must satisfy 0 <= b < p, got b={b}, p={modulus}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[ModularMultiplier]] = {}


def register_multiplier(
    cls: Optional[Type[ModularMultiplier]] = None,
) -> Callable[[Type[ModularMultiplier]], Type[ModularMultiplier]] | Type[ModularMultiplier]:
    """Class decorator adding a multiplier to the global registry."""

    def _register(target: Type[ModularMultiplier]) -> Type[ModularMultiplier]:
        key = target.name
        if not key or key == "abstract":
            raise ConfigurationError(
                f"{target.__name__} must define a non-default 'name' to be registered"
            )
        if key in _REGISTRY and _REGISTRY[key] is not target:
            raise ConfigurationError(f"multiplier name {key!r} already registered")
        _REGISTRY[key] = target
        return target

    if cls is None:
        return _register
    return _register(cls)


def get_multiplier(name: str) -> Type[ModularMultiplier]:
    """Look up a registered multiplier class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown multiplier {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_multipliers() -> List[str]:
    """Sorted names of every registered multiplier."""
    return sorted(_REGISTRY)
