"""Near-memory-computing (NMC) datapath of ModSRAM.

The paper keeps the near-memory circuit deliberately small (§4.3): three
full-width flip-flop registers (multiplier, sum, carry), the shifters on the
write-back path, the radix-4 Booth encoder, a few bits of overflow
flip-flops with their combinational logic, a LUT-select multiplexer and the
controller.  This module models the register file part of that circuit: it
owns every flip-flop, counts register writes (one of the quantities the
Figure 7 discussion is about) and performs the small amount of combinational
work (Booth window extraction, top-bit carry-save logic, overflow
accumulation) that cannot be done by the array itself because the redundant
registers are one bit wider than the array row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.booth import booth_digit_radix4
from repro.errors import ControllerError
from repro.modsram.config import ModSRAMConfig

__all__ = ["NearMemoryDatapath", "DatapathStats"]


@dataclass
class DatapathStats:
    """Flip-flop activity counters for the NMC circuit."""

    register_writes: int = 0
    register_bits_written: int = 0
    booth_encodings: int = 0
    overflow_updates: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class NearMemoryDatapath:
    """Registers and combinational helpers of the near-memory circuit."""

    def __init__(self, config: ModSRAMConfig) -> None:
        self.config = config
        self.stats = DatapathStats()
        # The full-width multiplier register; the sum and carry registers
        # (the other two of the paper's "three DFFs") are only counted.
        self._multiplier: int = 0
        # Single-bit extensions: bit n of the (n+1)-bit redundant registers
        # lives here because the array row is only n columns wide.
        self._sum_msb: int = 0
        self._carry_msb: int = 0
        # Overflow bookkeeping flip-flops ("some negligible FFs for overflow").
        self._shift_overflow: int = 0
        self._pending_carry_out: int = 0

    # ------------------------------------------------------------------ #
    # register writes (all counted)
    # ------------------------------------------------------------------ #
    def _write_register(self, bits: int) -> None:
        self.stats.register_writes += 1
        self.stats.register_bits_written += bits

    def load_multiplier(self, value: int) -> None:
        """Latch the multiplier read from its operand word line."""
        if value < 0 or value >> self.config.bitwidth:
            raise ControllerError(
                f"multiplier {value:#x} does not fit in {self.config.bitwidth} bits"
            )
        self._multiplier = value
        self._write_register(self.config.bitwidth)

    def latch_imc_result(self, xor3_word: int, maj_word: int) -> None:
        """Latch the logic-SA outputs (sum and carry words) into the FFs."""
        self._write_register(self.config.register_width)
        self._write_register(self.config.register_width)

    def set_accumulator_msbs(self, sum_msb: int, carry_msb: int) -> None:
        """Update the bit-n extensions of the sum and carry registers."""
        if sum_msb not in (0, 1) or carry_msb not in (0, 1):
            raise ControllerError("register MSB extensions must be single bits")
        self._sum_msb = sum_msb
        self._carry_msb = carry_msb
        self._write_register(2)

    def set_shift_overflow(self, value: int) -> None:
        """Latch the bits shifted out of the registers during write-back."""
        if value < 0:
            raise ControllerError(f"overflow field must be non-negative, got {value}")
        self._shift_overflow = value
        self.stats.overflow_updates += 1
        self._write_register(3)

    def set_pending_carry_out(self, bit: int) -> None:
        """Latch the carry word's escaped top bit (consumed next iteration)."""
        if bit not in (0, 1):
            raise ControllerError(f"pending carry-out must be a bit, got {bit}")
        self._pending_carry_out = bit
        self._write_register(1)

    # ------------------------------------------------------------------ #
    # register reads
    # ------------------------------------------------------------------ #
    @property
    def sum_msb(self) -> int:
        """Bit ``n`` of the sum register."""
        return self._sum_msb

    @property
    def carry_msb(self) -> int:
        """Bit ``n`` of the carry register."""
        return self._carry_msb

    # ------------------------------------------------------------------ #
    # combinational helpers
    # ------------------------------------------------------------------ #
    def booth_window(self, iteration: int, total_iterations: int) -> Tuple[int, int, int]:
        """Extract the Booth window ``(a_{2i+1}, a_i, a_{2i-1})`` for an iteration.

        ``iteration`` counts from 0 (most-significant digit first), matching
        the order in which the hardware shifts the multiplier register left
        by two every cycle pair.
        """
        if not 0 <= iteration < total_iterations:
            raise ControllerError(
                f"iteration {iteration} outside 0..{total_iterations - 1}"
            )
        digit_index = total_iterations - 1 - iteration
        base = 2 * digit_index
        low = (self._multiplier >> base) & 1
        high = (self._multiplier >> (base + 1)) & 1
        previous = (self._multiplier >> (base - 1)) & 1 if base > 0 else 0
        return high, low, previous

    def booth_digit(self, iteration: int, total_iterations: int) -> int:
        """Booth digit for an iteration (Table 1a applied to the window)."""
        high, low, previous = self.booth_window(iteration, total_iterations)
        self.stats.booth_encodings += 1
        return booth_digit_radix4(high, low, previous)

    def overflow_index(self, csa_carry_out: int) -> int:
        """Combine the overflow sources into the LUT-overflow index.

        The index is the sum of the bits shifted out during the previous
        write-back, the first CSA's carry-out, and the previous iteration's
        second-CSA carry-out weighted by the two shift positions it has aged
        (see the module docstring of :mod:`repro.core.algorithms.r4csa_lut`).
        """
        if csa_carry_out not in (0, 1):
            raise ControllerError(
                f"CSA carry-out must be a bit, got {csa_carry_out}"
            )
        return self._shift_overflow + csa_carry_out + 4 * self._pending_carry_out
