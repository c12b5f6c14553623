"""Dense polynomials over a prime field with NTT-backed multiplication.

ZKP proof systems manipulate polynomials whose coefficients live in the
curve's scalar field; their products are computed by transforming to the
evaluation domain (the NTT of Figure 7), multiplying point-wise and
transforming back.  This module gives the library a small but complete
polynomial layer so the application examples can express that pipeline
directly, with every modular multiplication flowing through the instrumented
NTT / field machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import NttError, OperandRangeError
from repro.zkp.ntt import NttContext

__all__ = ["Polynomial"]


def _trim(coefficients: Sequence[int]) -> List[int]:
    values = list(coefficients)
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    return values


@dataclass(frozen=True)
class Polynomial:
    """A dense polynomial with coefficients modulo ``modulus``.

    ``coefficients[i]`` is the coefficient of ``x**i``; the representation is
    normalised (reduced coefficients, no trailing zero except for the zero
    polynomial).
    """

    coefficients: tuple
    modulus: int

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, coefficients: Sequence[int], modulus: int) -> "Polynomial":
        """Build a normalised polynomial from any coefficient sequence."""
        if modulus <= 2:
            raise OperandRangeError(f"modulus must be greater than 2, got {modulus}")
        reduced = _trim([int(value) % modulus for value in coefficients] or [0])
        return cls(coefficients=tuple(reduced), modulus=modulus)

    @classmethod
    def zero(cls, modulus: int) -> "Polynomial":
        """The zero polynomial."""
        return cls.create([0], modulus)

    @classmethod
    def one(cls, modulus: int) -> "Polynomial":
        """The constant polynomial 1."""
        return cls.create([1], modulus)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def degree(self) -> int:
        """Degree of the polynomial (0 for constants, including zero)."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return self.coefficients == (0,)

    def evaluate(self, point: int) -> int:
        """Horner evaluation at ``point`` modulo the field prime."""
        accumulator = 0
        for coefficient in reversed(self.coefficients):
            accumulator = (accumulator * point + coefficient) % self.modulus
        return accumulator

    def __len__(self) -> int:
        return len(self.coefficients)

    # ------------------------------------------------------------------ #
    # ring operations
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "Polynomial") -> None:
        if other.modulus != self.modulus:
            raise OperandRangeError("cannot mix polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        length = max(len(self.coefficients), len(other.coefficients))
        summed = [
            (self.coefficient(i) + other.coefficient(i)) % self.modulus
            for i in range(length)
        ]
        return Polynomial.create(summed, self.modulus)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        length = max(len(self.coefficients), len(other.coefficients))
        difference = [
            (self.coefficient(i) - other.coefficient(i)) % self.modulus
            for i in range(length)
        ]
        return Polynomial.create(difference, self.modulus)

    def scale(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by a field scalar."""
        factor = scalar % self.modulus
        return Polynomial.create(
            [coefficient * factor % self.modulus for coefficient in self.coefficients],
            self.modulus,
        )

    def coefficient(self, index: int) -> int:
        """Coefficient of ``x**index`` (zero beyond the degree)."""
        if index < 0:
            raise OperandRangeError(f"coefficient index must be non-negative, got {index}")
        if index >= len(self.coefficients):
            return 0
        return self.coefficients[index]

    def multiply_schoolbook(self, other: "Polynomial") -> "Polynomial":
        """Quadratic-time product (reference for the NTT path)."""
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.modulus)
        result = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                result[i + j] = (result[i + j] + a * b) % self.modulus
        return Polynomial.create(result, self.modulus)

    def multiply_ntt(
        self, other: "Polynomial", context: Optional[NttContext] = None
    ) -> "Polynomial":
        """Product via the number-theoretic transform.

        Requires the field to support an NTT of the needed size (the product
        length rounded up to a power of two).  A pre-built ``context`` of at
        least that size may be supplied to reuse twiddle factors; its
        backend runs, and its counter counts, every multiplication, as in
        :meth:`NttContext.multiply_polynomials`.
        """
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.modulus)
        product_length = len(self.coefficients) + len(other.coefficients) - 1
        size = 1
        while size < product_length:
            size *= 2
        size = max(size, 2)
        if context is None:
            context = NttContext(self.modulus, size)
        elif context.size < product_length:
            raise NttError(
                f"supplied NTT context of size {context.size} is too small for a "
                f"degree-{product_length - 1} product"
            )
        elif context.modulus != self.modulus:
            raise NttError("NTT context modulus does not match the polynomial field")

        product = context._convolve(self.coefficients, other.coefficients)
        return Polynomial.create(product[:product_length], self.modulus)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Product, choosing NTT when the field supports it and it pays off."""
        self._check_compatible(other)
        product_length = len(self.coefficients) + len(other.coefficients) - 1
        if product_length >= 32:
            size = 1
            while size < product_length:
                size *= 2
            if (self.modulus - 1) % size == 0:
                return self.multiply_ntt(other)
        return self.multiply_schoolbook(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.modulus == other.modulus and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.coefficients, self.modulus))

    def __repr__(self) -> str:
        return (
            f"Polynomial(degree={self.degree}, modulus={self.modulus:#x}, "
            f"coefficients={self.coefficients[:4]}{'...' if len(self) > 4 else ''})"
        )
