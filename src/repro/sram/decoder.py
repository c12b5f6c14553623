"""Read / write word-line decoders and drivers.

ModSRAM needs two decoders: a write word-line (WWL) decoder that activates a
single row for write-back, and a read word-line (RWL) decoder/driver block
able to raise up to three read word lines at once (the two accumulator rows
plus the selected LUT row).  The paper notes the decoders are small — about
2 % of the macro area — because the array has only 64 rows; the transistor
estimate here feeds the area model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SramAccessError

__all__ = ["WordlineDecoder", "DecoderBank"]


class WordlineDecoder:
    """A ``log2(rows)``-to-``rows`` one-hot decoder with multi-hot drivers."""

    def __init__(self, rows: int, max_active: int = 1, name: str = "decoder") -> None:
        if rows <= 1:
            raise SramAccessError(f"decoder needs at least 2 rows, got {rows}")
        if max_active < 1:
            raise SramAccessError(f"max_active must be at least 1, got {max_active}")
        self.rows = rows
        self.max_active = max_active
        self.name = name
        self.address_bits = max(1, math.ceil(math.log2(rows)))
        self.activations = 0
        self.wordlines_raised = 0

    def decode(self, addresses: Sequence[int]) -> Tuple[int, ...]:
        """Raise the word lines for ``addresses``; returns the one-hot vector.

        The result is a tuple of ``rows`` bits with a one for every selected
        word line — the value the drivers place on the word lines for one
        access.
        """
        if not addresses:
            raise SramAccessError("decoder requires at least one address")
        unique = tuple(dict.fromkeys(addresses))
        if len(unique) != len(addresses):
            raise SramAccessError(f"duplicate addresses in {addresses!r}")
        if len(unique) > self.max_active:
            raise SramAccessError(
                f"{self.name} can raise at most {self.max_active} word lines, "
                f"{len(unique)} requested"
            )
        for address in unique:
            if not 0 <= address < self.rows:
                raise SramAccessError(
                    f"address {address} out of range for {self.rows} rows"
                )
        self.activations += 1
        self.wordlines_raised += len(unique)
        onehot = [0] * self.rows
        for address in unique:
            onehot[address] = 1
        return tuple(onehot)


@dataclass
class DecoderBank:
    """The pair of decoders ModSRAM instantiates (one RWL, one WWL)."""

    read_decoder: WordlineDecoder
    write_decoder: WordlineDecoder

    @classmethod
    def for_array(cls, rows: int, max_read_rows: int = 3) -> "DecoderBank":
        """Build the standard ModSRAM decoder pair for a ``rows``-row array."""
        return cls(
            read_decoder=WordlineDecoder(rows, max_active=max_read_rows, name="rwl"),
            write_decoder=WordlineDecoder(rows, max_active=1, name="wwl"),
        )
