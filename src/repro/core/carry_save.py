"""The carry-save adder on whole words: XOR3 and MAJ.

The ModSRAM logic-SA resolves both outputs for every column of three
activated word lines in one access, so one bitwise operation on whole words
models a noiseless access.  This is the one definition: the carry-save
algorithms, the analytical tier's word-level loop and the logic-SA's
ideal-sensing path call it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["xor3_maj"]


def xor3_maj(a: int, b: int, c: int) -> Tuple[int, int]:
    """Bitwise ``(XOR3, MAJ)`` of three words: ``xor3 + 2 * maj == a + b + c``.

    XOR3 is the *sum* output of a carry-save adder: the logic-SA module
    produces it when the read-bitline discharge level corresponds to an odd
    number of stored ones among the three activated rows.  MAJ is the
    *carry* output: the logic-SA module produces it when at least two of the
    three activated cells on a read bitline store a one.
    """
    half = a ^ b
    return half ^ c, (a & b) | (half & c)
