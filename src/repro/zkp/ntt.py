"""Number-theoretic transform (NTT) over prime fields.

The NTT is one of the two dominant kernels of a zero-knowledge-proof backend
(Figure 7): polynomial multiplications in the proof system are carried out
point-wise in the evaluation domain, so forward/inverse transforms over the
curve's scalar field account for a large fraction of the modular
multiplications.  This implementation is the standard iterative radix-2
Cooley–Tukey transform; its butterflies' multiplications, memory accesses
and register writes are counted, on the word-serial cost table of
:mod:`repro.zkp.opcount`, so the Figure 7 operation-count analysis can be
generated from measurement rather than quoted from the paper's citations.
Those counts do not depend on the data, so each transform charges them once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.algorithms.schoolbook import SchoolbookMultiplier
from repro.errors import NttError
from repro.instrumentation import OperationCounter
from repro.zkp.opcount import (
    _VALUE_ACCESSES_PER_BUTTERFLY,
    _register_writes_per_modmul,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.algorithms.base import ModularMultiplier

__all__ = ["NttContext", "bit_reverse_indices", "find_root_of_unity"]


def bit_reverse_indices(size: int) -> List[int]:
    """The bit-reversal permutation for a power-of-two ``size``."""
    if size <= 0 or size & (size - 1):
        raise NttError(f"size must be a power of two, got {size}")
    bits = size.bit_length() - 1
    indices = []
    for index in range(size):
        reversed_index = 0
        value = index
        for _ in range(bits):
            reversed_index = (reversed_index << 1) | (value & 1)
            value >>= 1
        indices.append(reversed_index)
    return indices


@lru_cache(maxsize=None)
def _bit_reversal(size: int) -> Tuple[int, ...]:
    """One shared, read-only bit-reversal table per transform size.

    Every context of a size reads the same table, so building many
    contexts (one per engine) adds no per-context copy.  Sizes are powers
    of two, so the cache holds at most one table per power.
    """
    return tuple(bit_reverse_indices(size))


def find_root_of_unity(modulus: int, size: int, seed: int = 0) -> int:
    """Find an element of exact multiplicative order ``size`` modulo ``modulus``.

    Requires ``size`` to divide ``modulus - 1`` (the NTT-friendliness
    condition).  The search raises random elements to the power
    ``(modulus - 1) / size`` and keeps the first result whose order is
    exactly ``size``.
    """
    if size <= 0 or size & (size - 1):
        raise NttError(f"size must be a power of two, got {size}")
    if (modulus - 1) % size:
        raise NttError(
            f"no NTT of size {size} exists modulo {modulus:#x}: "
            f"{size} does not divide p - 1"
        )
    exponent = (modulus - 1) // size
    rng = random.Random(seed)
    for _ in range(256):
        candidate = pow(rng.randrange(2, modulus - 1), exponent, modulus)
        if candidate == 1:
            continue
        if size == 1 or pow(candidate, size // 2, modulus) != 1:
            return candidate
    raise NttError(
        f"could not find a primitive {size}-th root of unity modulo {modulus:#x}"
    )


class NttContext:
    """Forward and inverse NTT of a fixed power-of-two size.

    ``multiplier`` routes every value-level modular multiplication (the
    butterfly twiddle products, the point-wise products and the inverse
    scaling) through a :class:`~repro.core.ModularMultiplier` backend — this
    is how :meth:`repro.engine.Engine.ntt` attaches the transform to its
    cached per-modulus context.  Without one, the context multiplies on its
    own :class:`~repro.core.algorithms.schoolbook.SchoolbookMultiplier`
    (``a * b % p``, the fast software oracle); the operation *counts* are
    identical either way.
    """

    def __init__(
        self,
        modulus: int,
        size: int,
        root_of_unity: Optional[int] = None,
        counter: Optional[OperationCounter] = None,
        multiplier: Optional["ModularMultiplier"] = None,
    ) -> None:
        if size <= 1 or size & (size - 1):
            raise NttError(f"size must be a power of two greater than 1, got {size}")
        if modulus <= 2:
            raise NttError(f"modulus must be greater than 2, got {modulus}")
        self.modulus = modulus
        self.size = size
        self.counter = counter or OperationCounter("ntt")
        self.multiplier = multiplier or SchoolbookMultiplier()
        self._register_writes_per_butterfly = _register_writes_per_modmul(
            modulus.bit_length()
        )
        self._bit_reversal = _bit_reversal(size)
        self.root = (
            root_of_unity
            if root_of_unity is not None
            else find_root_of_unity(modulus, size)
        )
        if pow(self.root, size, modulus) != 1 or pow(self.root, size // 2, modulus) == 1:
            raise NttError(
                f"{self.root:#x} is not a primitive {size}-th root of unity"
            )
        self.inverse_root = pow(self.root, modulus - 2, modulus)
        self.size_inverse = pow(size, modulus - 2, modulus)
        # Precomputed twiddle factors, natural order.
        self._twiddles = self._powers(self.root)
        self._inverse_twiddles = self._powers(self.inverse_root)

    def _powers(self, base: int) -> List[int]:
        powers = [1] * (self.size // 2)
        for index in range(1, self.size // 2):
            powers[index] = (powers[index - 1] * base) % self.modulus
        return powers

    def _charge(self, modmuls: int, **counts: int) -> None:
        """Charge one call's backend multiplications and counts, once.

        The backend's algorithm body is called directly (operands are always
        reduced), so its multiplication counter is kept truthful here.
        """
        self.multiplier.stats.multiplications += modmuls
        self.counter.add("modmul", modmuls)
        for operation, amount in counts.items():
            self.counter.add(operation, amount)

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def _transform(self, values: Sequence[int], twiddles: List[int]) -> List[int]:
        if len(values) != self.size:
            raise NttError(
                f"expected {self.size} coefficients, got {len(values)}"
            )
        modulus = self.modulus
        size = self.size
        multiply = self.multiplier._multiply
        # Bit-reversal permutation (decimation in time).
        data = [values[index] % modulus for index in self._bit_reversal]
        # One block at a time, so the backend sees its calls in butterfly
        # order (its statistics and depth-one LUT cache depend on it).
        length = 2
        while length <= size:
            half = length // 2
            factors = twiddles[:: size // length]
            for start in range(0, size, length):
                middle = start + half
                end = start + length
                evens = data[start:middle]
                odds = [
                    multiply(odd, factor, modulus)
                    for odd, factor in zip(data[middle:end], factors)
                ]
                data[start:middle] = [
                    (even + odd) % modulus for even, odd in zip(evens, odds)
                ]
                data[middle:end] = [
                    (even - odd) % modulus for even, odd in zip(evens, odds)
                ]
            length *= 2
        butterflies = (size // 2) * (size.bit_length() - 1)
        self._charge(
            butterflies,
            modadd=2 * butterflies,
            memory_access=_VALUE_ACCESSES_PER_BUTTERFLY * butterflies,
            register_write=self._register_writes_per_butterfly * butterflies,
        )
        return data

    def forward(self, values: Sequence[int]) -> List[int]:
        """Forward NTT (coefficients → evaluations)."""
        return self._transform(values, self._twiddles)

    def inverse(self, values: Sequence[int]) -> List[int]:
        """Inverse NTT (evaluations → coefficients)."""
        transformed = self._transform(values, self._inverse_twiddles)
        multiply = self.multiplier._multiply
        scale, modulus = self.size_inverse, self.modulus
        result = [multiply(value, scale, modulus) for value in transformed]
        self._charge(self.size, memory_access=2 * self.size)
        return result

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def multiply_polynomials(
        self, a: Sequence[int], b: Sequence[int]
    ) -> List[int]:
        """Multiply two polynomials of degree < size/2 via the NTT.

        The product has degree < size, so no wrap-around occurs and the
        result equals schoolbook polynomial multiplication modulo ``p``.
        Both inputs are padded to ``size`` and transformed; the point-wise
        products run on the backend and are charged once.
        """
        if len(a) > self.size // 2 or len(b) > self.size // 2:
            raise NttError(
                "each input polynomial must have at most size/2 coefficients "
                f"({self.size // 2}) to avoid cyclic wrap-around"
            )
        eval_a = self.forward(list(a) + [0] * (self.size - len(a)))
        eval_b = self.forward(list(b) + [0] * (self.size - len(b)))
        multiply, modulus = self.multiplier._multiply, self.modulus
        pointwise = [multiply(x, y, modulus) for x, y in zip(eval_a, eval_b)]
        self._charge(self.size, memory_access=3 * self.size)
        return self.inverse(pointwise)
