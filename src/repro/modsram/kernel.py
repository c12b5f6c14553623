"""The R4CSA-LUT algorithm body, one step per clock cycle.

:func:`run_kernel` runs the algorithm — load operands, fill the
radix-4/overflow LUTs, iterate Booth digit + overflow-fold carry-save
additions, finalise — as the sequence of word-line writes, reads,
logic-SA accesses and near-memory cycles the controller schedules, each
one a call on its host, the **cycle** tier
(:class:`~repro.modsram.accelerator.ModSRAMAccelerator`), whose SRAM
substrate, controller FSM, per-cycle trace and noisy logic-SA need every
step.

The analytical tier (:mod:`repro.modsram.analytical`) runs the same
recurrence as one word-level loop,
:meth:`~repro.modsram.analytical.FastHost.multiply`, and charges the same
statistics once per multiplication.  That parity is not structural, so
tests pin it: ``tests/modsram/test_fast_tier_pins.py`` holds digests
recorded from this body, and ``tests/modsram/test_fidelity.py`` checks the
analytical tier against the cycle tier on random operand sequences.  The
operand checks, LUT residency, LUT fill and outcome record below are shared
by both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.luts import (
    RADIX4_DIGIT_ORDER,
    OverflowLut,
    Radix4Lut,
    build_overflow_lut,
    build_radix4_lut,
)
from repro.errors import ControllerError, OperandRangeError
from repro.modsram.config import OVERFLOW_LUT_ROWS, ModSRAMConfig
from repro.modsram.controller import ControllerState
from repro.modsram.trace import Phase

if TYPE_CHECKING:  # pragma: no cover - the accelerator imports this module
    from repro.modsram.accelerator import ModSRAMAccelerator

__all__ = [
    "KernelOutcome",
    "LutResidency",
    "NMC_COUNTER_OF_KIND",
    "OPERAND_LOAD_WRITES",
    "fill_luts",
    "run_kernel",
    "validate_operands",
]

#: Counter name charged for each near-memory cycle ``kind`` the kernel
#: passes to its host's ``nmc_cycle``; the analytical tier charges the
#: same names, so the tiers' operation counts cannot drift apart.
NMC_COUNTER_OF_KIND = {
    "lut_compute": "nmc_compute",
    "full_add": "nmc_full_add",
    "subtract": "nmc_subtract",
}


@dataclass
class LutResidency:
    """Which (multiplicand, modulus) LUTs are resident on a host's rows."""

    multiplicand: Optional[int] = None
    modulus: Optional[int] = None

    def matches(self, multiplicand: int, modulus: int) -> bool:
        """Whether the resident tables serve this multiplication unchanged."""
        return self.multiplicand == multiplicand and self.modulus == modulus

    def retain(self, multiplicand: int, modulus: int) -> None:
        """Mark the tables for this pair as resident."""
        self.multiplicand = multiplicand
        self.modulus = modulus


@dataclass(frozen=True)
class KernelOutcome:
    """Everything one kernel run reports back to its tier."""

    product: int
    lut_reused: bool
    extra_overflow_folds: int
    #: Conditional subtractions performed during finalisation (each is one
    #: near-memory cycle in the cycle-accurate schedule).
    finalize_subtractions: int


def validate_operands(config: ModSRAMConfig, a: int, b: int, modulus: int) -> None:
    """Operand preconditions shared by every tier (macro sizing, ranges)."""
    n = config.bitwidth
    if modulus <= 2:
        raise OperandRangeError(f"modulus must be greater than 2, got {modulus}")
    if modulus.bit_length() > n:
        raise OperandRangeError(
            f"modulus needs {modulus.bit_length()} bits but the macro is "
            f"configured for {n}"
        )
    if modulus.bit_length() < n - 2:
        raise OperandRangeError(
            f"the macro is sized for {n}-bit moduli but the modulus only "
            f"needs {modulus.bit_length()} bits; reconfigure with "
            "ModSRAMConfig.with_bitwidth(modulus.bit_length()) so the "
            "redundant registers and the final reduction stay bounded"
        )
    for name, operand in (("a", a), ("b", b)):
        if not 0 <= operand < modulus:
            raise OperandRangeError(
                f"operand {name} must satisfy 0 <= {name} < p, got {operand}"
            )
    if not config.extend_for_full_range:
        top_bit = 2 * config.iterations - 1
        if (a >> top_bit) & 1:
            raise OperandRangeError(
                "the paper-mode schedule (extend_for_full_range=False) "
                "requires the multiplier's top bit to be clear; operand a "
                f"has bit {top_bit} set — use a full-range configuration"
            )


#: Row writes issued while loading operands: A, B, p and the two
#: accumulator clears.  The multiplier read-back costs one more cycle.
OPERAND_LOAD_WRITES = 5


def fill_luts(
    config: ModSRAMConfig, multiplicand: int, modulus: int
) -> Tuple[Radix4Lut, OverflowLut, int]:
    """Both LUTs for one (multiplicand, modulus) pair and their compute cycles.

    Each non-trivial entry costs two near-memory cycles, one per modular
    add/subtract; writing the entries to their word lines is charged
    separately, one cycle per row.
    """
    radix4 = build_radix4_lut(multiplicand, modulus)
    overflow = build_overflow_lut(
        modulus, config.register_width, entry_count=OVERFLOW_LUT_ROWS
    )
    compute_cycles = radix4.computed_entry_count() * 2 + (len(overflow) - 1) * 2
    return radix4, overflow, compute_cycles


def _load_operands(host: ModSRAMAccelerator, a: int, b: int, modulus: int) -> None:
    """Write A, B, p to their word lines and latch the multiplier."""
    host.transition(ControllerState.LOAD)
    mm = host.memory_map
    host.write_row(Phase.LOAD_MULTIPLIER, mm.multiplier_row, a, note="A")
    host.write_row(Phase.LOAD_MULTIPLIER, mm.multiplicand_row, b, note="B")
    host.write_row(Phase.LOAD_MULTIPLIER, mm.modulus_row, modulus, note="p")
    # Clear the accumulator rows left over from any previous result.
    host.write_row(Phase.LOAD_MULTIPLIER, mm.sum_row, 0, note="clear sum")
    host.write_row(Phase.LOAD_MULTIPLIER, mm.carry_row, 0, note="clear carry")
    multiplier = host.read_row(Phase.LOAD_MULTIPLIER, mm.multiplier_row, note="A -> FF")
    host.datapath.load_multiplier(multiplier)
    host.datapath.set_accumulator_msbs(0, 0)
    host.datapath.set_shift_overflow(0)
    host.datapath.set_pending_carry_out(0)


def _precompute_luts(host: ModSRAMAccelerator, b: int, modulus: int) -> bool:
    """Fill the radix-4 and overflow LUT word lines.

    Returns ``True`` when the resident tables were reused (same multiplicand
    and modulus as the previous multiplication), in which case no cycles are
    charged — this is the data-reuse behaviour the paper highlights.
    """
    reused = host.lut_residency.matches(b, modulus)
    host.transition(ControllerState.PRECOMPUTE)
    if reused:
        return True

    mm = host.memory_map
    radix4, overflow, compute_cycles = fill_luts(host.config, b, modulus)
    for _ in range(compute_cycles):
        host.nmc_cycle(Phase.PRECOMPUTE, "nmc LUT computation", kind="lut_compute")

    for digit in RADIX4_DIGIT_ORDER:
        host.write_row(
            Phase.PRECOMPUTE,
            mm.radix4_row(digit),
            radix4[digit],
            note=f"LUT-radix4[{digit:+d}]",
        )
    for index, row in enumerate(mm.overflow_rows):
        host.write_row(
            Phase.PRECOMPUTE, row, overflow[index], note=f"LUT-overflow[{index}]"
        )
    host.lut_residency.retain(b, modulus)
    return False


def _carry_save_step(
    host: ModSRAMAccelerator,
    phase: Phase,
    lut_row: int,
    iteration: int,
    digit: Optional[int],
    overflow_index: Optional[int],
) -> Tuple[int, int, int]:
    """One in-memory carry-save addition against a LUT row.

    The logic-SA produces XOR3/MAJ of the low ``n`` bits; the near-memory
    logic extends them with bit ``n`` of the redundant registers (the LUT
    entry's bit ``n`` is always zero because every entry is below the
    modulus).  Returns the full-width new sum, the new carry (already
    shifted left by one) and the carry word's escaped top bit.
    """
    n = host.config.bitwidth
    width = host.config.register_width
    mm = host.memory_map

    xor_low, maj_low = host.imc_access(
        phase,
        (lut_row, mm.sum_row, mm.carry_row),
        iteration,
        digit=digit,
        overflow_index=overflow_index,
    )
    sum_msb = host.datapath.sum_msb
    carry_msb = host.datapath.carry_msb
    xor_top = sum_msb ^ carry_msb
    maj_top = sum_msb & carry_msb

    new_sum = xor_low | (xor_top << n)
    maj_word = maj_low | (maj_top << n)
    shifted_carry = maj_word << 1
    escaped = shifted_carry >> width
    new_carry = shifted_carry & ((1 << width) - 1)
    host.datapath.latch_imc_result(new_sum, maj_word)
    return new_sum, new_carry, escaped


def _writeback(
    host: ModSRAMAccelerator,
    value: int,
    row: int,
    msb_setter: str,
    shift: int,
    iteration: int,
    note: str,
) -> int:
    """Write a redundant register back to its row, optionally pre-shifted.

    Returns the overflow bits that escaped the register because of the
    shift (captured by the near-memory overflow flip-flops).
    """
    n = host.config.bitwidth
    width = host.config.register_width
    shifted = value << shift
    overflow = shifted >> width
    shifted &= (1 << width) - 1
    phase = Phase.WRITEBACK_SUM if msb_setter == "sum" else Phase.WRITEBACK_CARRY
    host.write_row(phase, row, shifted & ((1 << n) - 1), iteration, note)
    if msb_setter == "sum":
        host.datapath.set_accumulator_msbs((shifted >> n) & 1, host.datapath.carry_msb)
    else:
        host.datapath.set_accumulator_msbs(host.datapath.sum_msb, (shifted >> n) & 1)
    return overflow


def _run_iterations(host: ModSRAMAccelerator) -> Tuple[int, int, int, int]:
    """Execute the main loop; returns (sum, carry, pending, extra_folds)."""
    mm = host.memory_map
    iterations = host.config.iterations
    host.transition(ControllerState.ITERATE)

    extra_folds = 0
    final_sum = 0
    final_carry = 0
    pending_weight_bits = 0

    for iteration in range(iterations):
        host.begin_iteration(iteration)
        last = iteration == iterations - 1
        digit = host.datapath.booth_digit(iteration, iterations)

        # ---- first section: add the Booth-digit entry ---------------- #
        new_sum, new_carry, escaped = _carry_save_step(
            host,
            Phase.IMC_RADIX4,
            mm.radix4_row(digit),
            iteration,
            digit=digit,
            overflow_index=None,
        )
        _writeback(host, new_sum, mm.sum_row, "sum", 0, iteration, "sum")
        _writeback(host, new_carry, mm.carry_row, "carry", 0, iteration, "carry<<1")

        # ---- second section: fold the overflow back in ---------------- #
        overflow_index = host.datapath.overflow_index(escaped)
        remaining = overflow_index
        pending_bits = 0
        while True:
            fold = min(remaining, len(mm.overflow_rows) - 1)
            new_sum, new_carry, escaped = _carry_save_step(
                host,
                Phase.IMC_OVERFLOW,
                mm.overflow_row(fold),
                iteration,
                digit=None,
                overflow_index=fold,
            )
            pending_bits += escaped
            remaining -= fold
            if remaining == 0:
                break
            # The index exceeds the last overflow row: write the partial
            # result back and fold again.  This happens when the modulus
            # fills the macro's width, at small widths as well as large:
            # about 1 product in 2,000 at 16 bits and 1 in 200 at 64 bits
            # for random such moduli (tests/modsram/test_fidelity.py::
            # TestExtraOverflowFolds pins a 12- and a 16-bit case).
            extra_folds += 1
            _writeback(
                host, new_sum, mm.sum_row, "sum", 0, iteration, "sum (extra fold)"
            )
            _writeback(
                host, new_carry, mm.carry_row, "carry", 0, iteration,
                "carry (extra fold)",
            )

        # ---- write back, pre-shifted for the next iteration ----------- #
        if last:
            # No shift after the final iteration; the carry write-back is
            # elided (the finaliser consumes it straight from the FF).
            _writeback(host, new_sum, mm.sum_row, "sum", 0, iteration, "sum (final)")
            final_sum = new_sum
            final_carry = new_carry
            pending_weight_bits = pending_bits
        else:
            sum_overflow = _writeback(
                host, new_sum, mm.sum_row, "sum", 2, iteration, "sum<<2"
            )
            carry_overflow = _writeback(
                host, new_carry, mm.carry_row, "carry", 2, iteration, "carry<<2"
            )
            host.datapath.set_shift_overflow(sum_overflow + carry_overflow)
            # At most one fold per iteration lets a bit escape (tests/
            # modsram/test_fidelity.py::TestExtraOverflowFolds), so this
            # is a bit; the 1-bit latch raises ControllerError otherwise.
            host.datapath.set_pending_carry_out(pending_bits)

    return final_sum, final_carry, pending_weight_bits, extra_folds


def _finalize(
    host: ModSRAMAccelerator,
    sum_word: int,
    carry_word: int,
    pending: int,
    modulus: int,
) -> Tuple[int, int]:
    """Final full addition and reduction performed near-memory.

    Returns ``(product, conditional_subtractions)``.
    """
    host.transition(ControllerState.FINALIZE)
    mm = host.memory_map
    n = host.config.bitwidth
    width = host.config.register_width

    # Read the sum row back (one cycle); the carry is still in the FF.
    stored_sum_low = host.read_row(Phase.FINALIZE, mm.sum_row, note="sum -> adder")
    stored_sum = stored_sum_low | (host.datapath.sum_msb << n)
    if stored_sum != sum_word:
        raise ControllerError(
            "sum row/register mismatch at finalisation: the array holds "
            f"{stored_sum:#x} but the datapath computed {sum_word:#x}"
        )

    total = stored_sum + carry_word + (pending << width)
    host.nmc_cycle(Phase.FINALIZE, "full addition of sum and carry", kind="full_add")
    subtractions = 0
    while total >= modulus:
        total -= modulus
        subtractions += 1
        host.nmc_cycle(Phase.FINALIZE, "conditional subtraction", kind="subtract")
    host.transition(ControllerState.DONE)
    return total, subtractions


def run_kernel(host: ModSRAMAccelerator, a: int, b: int, modulus: int) -> KernelOutcome:
    """Execute one modular multiplication on a host, one step per cycle."""
    validate_operands(host.config, a, b, modulus)
    _load_operands(host, a, b, modulus)
    reused = _precompute_luts(host, b, modulus)
    sum_word, carry_word, pending, extra_folds = _run_iterations(host)
    product, subtractions = _finalize(host, sum_word, carry_word, pending, modulus)
    return KernelOutcome(
        product=product,
        lut_reused=reused,
        extra_overflow_folds=extra_folds,
        finalize_subtractions=subtractions,
    )
