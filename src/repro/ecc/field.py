"""Prime fields with pluggable multiplication backends.

ECC is "composed of modular arithmetic, where modular multiplication takes
most of the processing time" — the whole point of ModSRAM.  The field layer
therefore routes every multiplication through a
:class:`repro.core.ModularMultiplier` backend, so the same elliptic-curve
code can run on the software oracle, on the R4CSA-LUT reference algorithm or
on the cycle-level ModSRAM model, and every operation is counted so the
application-level analyses (Figure 7) can report how many modular
multiplications, additions and inversions a kernel performs.

The curve's point formulas (:mod:`repro.ecc.curve`) bypass
:class:`FieldElement`: they call the backend's algorithm body directly on
residues they have already reduced, making the calls element arithmetic
would make, and charge each formula's counts once.  The counter and the
backend's statistics read as if every operation had gone through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.algorithms.base import ModularMultiplier
from repro.core.algorithms.schoolbook import SchoolbookMultiplier
from repro.errors import ModulusError, OperandRangeError
from repro.instrumentation import OperationCounter

__all__ = ["PrimeField", "FieldElement"]


class PrimeField:
    """The field GF(p) with an explicit multiplication backend."""

    def __init__(
        self,
        modulus: int,
        multiplier: Optional[ModularMultiplier] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        if modulus <= 2:
            raise ModulusError(f"field modulus must be greater than 2, got {modulus}")
        if modulus % 2 == 0:
            raise ModulusError(f"field modulus must be odd, got {modulus}")
        self.modulus = modulus
        self.multiplier = multiplier or SchoolbookMultiplier()
        self.counter = counter or OperationCounter("field")

    # ------------------------------------------------------------------ #
    # element construction
    # ------------------------------------------------------------------ #
    def element(self, value: int) -> "FieldElement":
        """Wrap an integer (reduced modulo p) as a field element."""
        return FieldElement(value % self.modulus, self)

    def zero(self) -> "FieldElement":
        """The additive identity."""
        return self.element(0)

    def one(self) -> "FieldElement":
        """The multiplicative identity."""
        return self.element(1)

    # ------------------------------------------------------------------ #
    # arithmetic primitives (counted)
    # ------------------------------------------------------------------ #
    def add(self, a: int, b: int) -> int:
        """Modular addition."""
        self.counter.increment("modadd")
        result = a + b
        if result >= self.modulus:
            result -= self.modulus
        return result

    def multiply(self, a: int, b: int) -> int:
        """Modular multiplication through the configured backend."""
        self.counter.increment("modmul")
        return self.multiplier.multiply(a, b, self.modulus)

    def inverse(self, a: int) -> int:
        """Modular inverse via Fermat's little theorem, counted as one ``modinv``."""
        if a % self.modulus == 0:
            raise OperandRangeError("zero has no multiplicative inverse")
        self.counter.increment("modinv")
        return pow(a, self.modulus - 2, self.modulus)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField(modulus={self.modulus:#x}, backend={self.multiplier.name!r})"


@dataclass(frozen=True)
class FieldElement:
    """An immutable element of a :class:`PrimeField`."""

    value: int
    field: PrimeField

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.field.modulus:
            raise OperandRangeError(
                f"field element {self.value} outside [0, {self.field.modulus})"
            )

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #
    def _coerce(self, other: "FieldElement | int") -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise OperandRangeError("cannot mix elements of different fields")
            return other.value
        return int(other) % self.field.modulus

    def __add__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement(self.field.add(self.value, self._coerce(other)), self.field)

    def __mul__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement(
            self.field.multiply(self.value, self._coerce(other)), self.field
        )

    def square(self) -> "FieldElement":
        """Square this element."""
        return self * self

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse."""
        return FieldElement(self.field.inverse(self.value), self.field)

    def is_zero(self) -> bool:
        """Whether this is the additive identity."""
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.modulus))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FieldElement({self.value:#x})"
