"""Analytic cycle-complexity models (Figure 1 of the paper).

Figure 1 compares, as a function of operand bitwidth, the cycles one modular
multiplication takes under the MeNTT bit-serial algorithm, a projected
variant of it, and the paper's algorithm.  These closed-form laws are the
"algorithm complexity" half of the paper's story; the measured counterpart
comes from the cycle-accurate accelerator model in :mod:`repro.modsram`.

All functions take the operand bitwidth ``n`` and return a cycle count.
The four laws of the implemented algorithms are also their classes'
``cycles()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.booth import booth_digit_count
from repro.errors import OperandRangeError

__all__ = [
    "cycles_mentt_bit_serial",
    "cycles_mentt_projected",
    "cycles_r4csa_lut",
    "r4csa_lut_main_loop",
    "cycles_interleaved",
    "cycles_radix4_interleaved",
    "cycles_csa_interleaved",
    "ComplexityModel",
    "COMPLEXITY_MODELS",
    "complexity_sweep",
    "PAPER_FIGURE1_BITWIDTHS",
]

#: The bitwidths plotted on the x-axis of Figure 1.
PAPER_FIGURE1_BITWIDTHS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)


def _check_bitwidth(bitwidth: int) -> None:
    if bitwidth <= 0:
        raise OperandRangeError(f"bitwidth must be positive, got {bitwidth}")


def cycles_mentt_bit_serial(bitwidth: int) -> int:
    """MeNTT's bit-serial modular multiplication: ``(n + 1)**2`` cycles.

    The paper (§5.4) states the MeNTT algorithm needs ``(n+1)^2`` cycles per
    modular multiplication once scaled to a common bitwidth, which is 66 049
    cycles at 256 bits (Table 3).
    """
    _check_bitwidth(bitwidth)
    return (bitwidth + 1) ** 2


def cycles_mentt_projected(bitwidth: int) -> int:
    """The "MeNTT projected algorithm" curve of Figure 1.

    Figure 1 shows a second MeNTT curve in which the bit-serial algorithm is
    projected onto a design whose word-level operations are parallelised but
    whose reduction remains bit-serial; it grows as ``n * (n + 1) / 2``
    (quadratic with a smaller constant), sitting between the MeNTT measured
    curve and the linear curve of this work.
    """
    _check_bitwidth(bitwidth)
    return bitwidth * (bitwidth + 1) // 2


def r4csa_lut_main_loop(iterations: int) -> int:
    """Main-loop cycles of ``iterations`` R4CSA-LUT iterations: ``6 * it - 1``.

    Each iteration is two logic-SA accesses and four write-backs, with the
    last carry write-back elided (see :mod:`repro.modsram.controller`).
    The one copy of the law: :func:`cycles_r4csa_lut`, the macro
    configuration and the analytical tier read it.
    """
    return 6 * iterations - 1


def cycles_r4csa_lut(bitwidth: int) -> int:
    """This work: six array accesses per radix-4 digit, ``6 * ceil(n/2) - 1``.

    The paper schedule's ``ceil(n/2)`` digits through
    :func:`r4csa_lut_main_loop`: ``3n - 1`` at even ``n``.
    """
    _check_bitwidth(bitwidth)
    return r4csa_lut_main_loop(booth_digit_count(bitwidth, full_range=False))


def cycles_interleaved(bitwidth: int) -> int:
    """Classic interleaved algorithm (Algorithm 1): ``6n`` full-width steps.

    Per multiplier bit: shift, compare, subtract, add, compare, subtract,
    each carry-propagating in a straightforward hardware mapping.
    """
    _check_bitwidth(bitwidth)
    return 6 * bitwidth


def cycles_radix4_interleaved(bitwidth: int) -> int:
    """Radix-4 interleaved algorithm (Algorithm 2): ``5 * ceil(n/2)`` steps.

    Per radix-4 digit: shift-by-two, LUT reduction of the quadrupled
    accumulator, digit-LUT addition and one conditional subtraction.
    """
    _check_bitwidth(bitwidth)
    return 5 * booth_digit_count(bitwidth, full_range=False)


def cycles_csa_interleaved(bitwidth: int) -> int:
    """Radix-2 carry-save interleaved algorithm: ``6n - 1`` array accesses.

    Two logic-SA accesses and four write-backs per multiplier bit, the
    R4CSA-LUT iteration for one bit, last carry write-back elided.
    """
    _check_bitwidth(bitwidth)
    return 6 * bitwidth - 1


@dataclass(frozen=True)
class ComplexityModel:
    """A named cycle-count law used in the Figure 1 sweep."""

    key: str
    label: str
    order: str
    in_paper_figure: bool
    cycles: Callable[[int], int]

    def sweep(self, bitwidths: Sequence[int]) -> List[int]:
        """Evaluate the law at every requested bitwidth."""
        return [self.cycles(bitwidth) for bitwidth in bitwidths]


#: Every law the analysis layer knows about, keyed by identifier.  The three
#: whose ``in_paper_figure`` flag is set are the curves of Figure 1.
COMPLEXITY_MODELS: Dict[str, ComplexityModel] = {
    model.key: model
    for model in (
        ComplexityModel(
            key="mentt",
            label="MeNTT algorithm",
            order="O(n^2)",
            in_paper_figure=True,
            cycles=cycles_mentt_bit_serial,
        ),
        ComplexityModel(
            key="mentt-projected",
            label="MeNTT projected algorithm",
            order="O(n^2)",
            in_paper_figure=True,
            cycles=cycles_mentt_projected,
        ),
        ComplexityModel(
            key="r4csa-lut",
            label="Our algorithm (R4CSA-LUT)",
            order="O(n)",
            in_paper_figure=True,
            cycles=cycles_r4csa_lut,
        ),
        ComplexityModel(
            key="interleaved",
            label="Interleaved (Algorithm 1)",
            order="O(n)",
            in_paper_figure=False,
            cycles=cycles_interleaved,
        ),
        ComplexityModel(
            key="radix4-interleaved",
            label="Radix-4 interleaved (Algorithm 2)",
            order="O(n)",
            in_paper_figure=False,
            cycles=cycles_radix4_interleaved,
        ),
        ComplexityModel(
            key="csa-interleaved",
            label="Radix-2 CSA interleaved",
            order="O(n)",
            in_paper_figure=False,
            cycles=cycles_csa_interleaved,
        ),
    )
}


def complexity_sweep(
    bitwidths: Sequence[int] = PAPER_FIGURE1_BITWIDTHS,
    keys: Sequence[str] | None = None,
) -> Dict[str, List[int]]:
    """Evaluate cycle laws over a bitwidth sweep.

    Parameters
    ----------
    bitwidths:
        Bitwidths to evaluate (defaults to the paper's Figure 1 x-axis).
    keys:
        Which models to include; defaults to the three curves in Figure 1.
    """
    if keys is None:
        keys = [
            key for key, model in COMPLEXITY_MODELS.items() if model.in_paper_figure
        ]
    sweep: Dict[str, List[int]] = {}
    for key in keys:
        if key not in COMPLEXITY_MODELS:
            raise OperandRangeError(
                f"unknown complexity model {key!r}; available: "
                f"{sorted(COMPLEXITY_MODELS)}"
            )
        sweep[key] = COMPLEXITY_MODELS[key].sweep(bitwidths)
    return sweep
