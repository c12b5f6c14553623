"""Booth recoding (the radix-4 encoder).

The radix-4 Booth encoder is Table 1a of the paper: three multiplier bits
(with one bit of overlap between consecutive groups) are recoded into a
signed digit in ``{-2, -1, 0, +1, +2}``, so each iteration of the interleaved
multiplier consumes two multiplier bits instead of one and the iteration
count is halved.

The ModSRAM near-memory circuit implements this encoder as a handful of
gates next to the multiplier flip-flop; here it is a pure function plus the
digit-expansion helpers used by both the reference algorithms and the
cycle-level accelerator model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import BitWidthError, OperandRangeError

__all__ = [
    "RADIX4_ENCODER_TABLE",
    "booth_digit_radix4",
    "booth_digits_radix4",
    "booth_digit_count",
    "encoder_truth_table",
]

#: Table 1a of the paper: (a_{i+1}, a_i, a_{i-1}) -> signed digit.
RADIX4_ENCODER_TABLE: Dict[Tuple[int, int, int], int] = {
    (0, 0, 0): 0,
    (0, 0, 1): +1,
    (0, 1, 0): +1,
    (0, 1, 1): +2,
    (1, 0, 0): -2,
    (1, 0, 1): -1,
    (1, 1, 0): -1,
    (1, 1, 1): 0,
}

def booth_digit_radix4(a_high: int, a_mid: int, a_low: int) -> int:
    """Recode one overlapping bit triple into a radix-4 Booth digit.

    This is exactly Table 1a: ``digit = a_low + a_mid - 2 * a_high``.
    """
    for name, bit in (("a_high", a_high), ("a_mid", a_mid), ("a_low", a_low)):
        if bit not in (0, 1):
            raise OperandRangeError(f"{name} must be a bit (0 or 1), got {bit!r}")
    return RADIX4_ENCODER_TABLE[(a_high, a_mid, a_low)]


def booth_digit_count(
    bitwidth: int, full_range: bool = True, digit_bits: int = 2
) -> int:
    """Number of Booth digits needed to recode a ``bitwidth``-bit operand.

    Radix-4 Booth recoding of an *unsigned* operand ``a`` is exact over
    ``m`` digits only when bit ``2m - 1`` of ``a`` is zero.  With
    ``full_range=True`` (the default) one extra digit is allotted so that
    any ``bitwidth``-bit operand recodes exactly; with ``full_range=False``
    the paper's ``ceil(n / 2)`` digit count is used, which is exact only
    when the operand's top bit is clear (true for BN254-sized moduli held
    in 256-bit registers).  ``digit_bits`` generalises the rule to radix
    ``2 ** digit_bits``: ``ceil(n / digit_bits)`` digits, one more in full
    range.  It is the one digit rule of every main-loop iteration count.
    """
    if bitwidth <= 0:
        raise BitWidthError(f"bitwidth must be positive, got {bitwidth}")
    base = -(-bitwidth // digit_bits)
    # One more digit is only required when the top processed bit can be set,
    # i.e. when the bitwidth is a multiple of the digit width (otherwise the
    # extra overlap bit is already a padding zero).
    return base + 1 if full_range and bitwidth % digit_bits == 0 else base


def booth_digits_radix4(
    value: int, bitwidth: int, full_range: bool = True
) -> List[int]:
    """Radix-4 Booth digits of ``value``, most-significant digit first.

    The returned digits satisfy ``value == sum(d_i * 4**i)`` where ``i``
    counts from the *end* of the list (least-significant digit last), i.e.
    the list is ordered the way the interleaved main loop consumes it.

    Raises :class:`OperandRangeError` if ``full_range`` is ``False`` and the
    recoding would be inexact (operand top bit set), because silently
    producing a wrong expansion would defeat the point of a reproduction.
    """
    if bitwidth <= 0:
        raise BitWidthError(f"bitwidth must be positive, got {bitwidth}")
    if value < 0:
        raise OperandRangeError(f"value must be non-negative, got {value}")
    if value >> bitwidth:
        raise BitWidthError(
            f"value {value:#x} does not fit in {bitwidth} bits"
        )

    digit_count = booth_digit_count(bitwidth, full_range=full_range)
    top_bit_position = 2 * digit_count - 1
    if (value >> top_bit_position) & 1:
        raise OperandRangeError(
            "radix-4 Booth recoding over "
            f"{digit_count} digits is inexact for {value:#x}: bit "
            f"{top_bit_position} is set; use full_range=True"
        )

    digits: List[int] = []
    previous_bit = 0  # a_{-1} = 0
    for digit_index in range(digit_count):
        low = (value >> (2 * digit_index)) & 1
        high = (value >> (2 * digit_index + 1)) & 1
        digits.append(booth_digit_radix4(high, low, previous_bit))
        previous_bit = high
    digits.reverse()
    return digits


def encoder_truth_table() -> List[Tuple[int, int, int, int]]:
    """Table 1a as a list of rows ``(a_{i+1}, a_i, a_{i-1}, digit)``.

    Used by the analysis layer to regenerate the paper's Table 1a verbatim.
    """
    rows = []
    for bits in sorted(RADIX4_ENCODER_TABLE):
        rows.append((bits[0], bits[1], bits[2], RADIX4_ENCODER_TABLE[bits]))
    return rows
