"""HDL co-simulation agreement: event-driven RTL vs the modeled tiers.

The exhibit behind experiment ``hdl-cosim`` (and ``repro hdl cosim``): for
each bitwidth, run the same operand stream through the event-driven RTL
simulator (:class:`~repro.hdl.eventsim.HdlModSRAM`), the cycle-accurate
tier and the analytical tier (:func:`~repro.modsram.fidelity.cross_check`),
and record whether every product equals the big-integer oracle, the
per-phase cycle reports agree field by field and the cycle and analytical
tiers' energy reports agree.  The paper's design point
(256-bit, ``n/2`` schedule, 767 main-loop cycles) is always run on the RTL,
checked against the closed form (a failure raises), and the result records
the co-simulation cost — simulator events per second and the slowdown
against the cycle tier — so the price of the machine-checked cycle model is
visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.modsram.config import ModSRAMConfig, PAPER_CONFIG
from repro.modsram.fidelity import build_simulator, checked_multiply, cross_check
from repro.tables import render_table

__all__ = ["HdlCosimRow", "HdlCosimResult", "reproduce_hdl_cosim"]


@dataclass(frozen=True)
class HdlCosimRow:
    """Agreement + cost figures of one bitwidth's co-simulation run."""

    bitwidth: int
    cases: int
    iterations: int
    iteration_cycles: int
    products_match: bool
    cycles_match: bool
    #: Whether the cycle and analytical tiers' energy reports agreed (the
    #: RTL tier has none).
    energy_match: bool
    sim_events: int
    events_per_second: float
    hdl_seconds: float
    cycle_seconds: float

    @property
    def slowdown(self) -> float:
        """Wall-clock cost of the HDL tier relative to the cycle tier."""
        if self.cycle_seconds <= 0.0:
            return float("inf")
        return self.hdl_seconds / self.cycle_seconds

    def as_row(self) -> List[object]:
        """One row of the agreement table."""
        return [
            self.bitwidth,
            self.cases,
            self.iteration_cycles,
            "yes" if self.products_match else "NO",
            "yes" if self.cycles_match else "NO",
            "yes" if self.energy_match else "NO",
            self.sim_events,
            round(self.events_per_second / 1e3, 1),
            round(self.slowdown, 1),
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "bitwidth": self.bitwidth,
            "cases": self.cases,
            "iterations": self.iterations,
            "iteration_cycles": self.iteration_cycles,
            "products_match": self.products_match,
            "cycles_match": self.cycles_match,
            "energy_match": self.energy_match,
            "sim_events": self.sim_events,
            "events_per_second": self.events_per_second,
            "hdl_seconds": self.hdl_seconds,
            "cycle_seconds": self.cycle_seconds,
        }


@dataclass(frozen=True)
class HdlCosimResult:
    """The full cycle-agreement sweep plus the paper-point check."""

    rows: Tuple[HdlCosimRow, ...]
    seed: int
    #: Main-loop cycles measured from the RTL at the paper's design point.
    paper_iteration_cycles: int

    @property
    def all_match(self) -> bool:
        """Whether every bitwidth agreed on products, cycle and energy reports."""
        return all(
            row.products_match and row.cycles_match and row.energy_match
            for row in self.rows
        )

    @property
    def paper_point_ok(self) -> bool:
        """Whether the RTL reproduces the paper's 767 main-loop cycles."""
        return self.paper_iteration_cycles == PAPER_CONFIG.expected_iteration_cycles

    @property
    def passed(self) -> bool:
        """The experiment's verdict: every tier agreed and the paper point held."""
        return self.all_match and self.paper_point_ok

    def render(self) -> str:
        """Human-readable agreement table."""
        table = render_table(
            (
                "bitwidth",
                "cases",
                "loop cycles",
                "products",
                "cycle report",
                "energy report",
                "sim events",
                "kevents/s",
                "slowdown vs cycle tier",
            ),
            [row.as_row() for row in self.rows],
            title="HDL co-simulation vs modeled tiers",
        )
        verdict = "AGREE" if self.all_match else "DISAGREE"
        paper = (
            f"paper point (256b, n/2 schedule): measured "
            f"{self.paper_iteration_cycles} main-loop cycles, expected "
            f"{PAPER_CONFIG.expected_iteration_cycles} -> "
            f"{'ok' if self.paper_point_ok else 'MISMATCH'}"
        )
        return f"{table}\n{paper}\nverdict: {verdict}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "rows": [row.to_dict() for row in self.rows],
            "seed": self.seed,
            "paper_iteration_cycles": self.paper_iteration_cycles,
            "all_match": self.all_match,
            "paper_point_ok": self.paper_point_ok,
        }


def _modulus_for(bitwidth: int, rng: random.Random) -> int:
    """An odd modulus filling the macro's operand width."""
    modulus = (1 << bitwidth) - rng.randrange(3, 1 << min(bitwidth - 2, 8))
    return modulus | 1


def _operands(
    config: ModSRAMConfig, modulus: int, cases: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Random pairs plus the degenerate corners, within operand bounds."""
    a_limit = modulus
    if not config.extend_for_full_range:
        a_limit = min(modulus, 1 << (2 * config.iterations - 1))
    pairs = [(0, modulus - 1), (1, 1), (a_limit - 1, modulus - 1)]
    while len(pairs) < cases:
        pairs.append((rng.randrange(a_limit), rng.randrange(modulus)))
    return pairs[:cases]


def reproduce_hdl_cosim(
    bitwidths: Sequence[int] = (16, 32, 64),
    cases: int = 5,
    seed: int = 2024,
) -> HdlCosimResult:
    """Run the co-simulation agreement sweep.

    For every bitwidth the same operands go through the HDL, cycle and
    analytical tiers; a row records whether every product equals the
    big-integer oracle, whether the three cycle reports agree field by
    field and whether the two energy reports agree.  The paper design
    point is measured on the RTL at the end and raises
    :class:`~repro.errors.TierMismatchError` if it fails its check.  An
    empty ``bitwidths`` or ``cases`` below 1 raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not bitwidths:
        raise ConfigurationError("bitwidths must not be empty")
    if cases < 1:
        raise ConfigurationError(f"cases must be at least 1, got {cases}")
    rng = random.Random(seed)
    rows: List[HdlCosimRow] = []
    for bitwidth in bitwidths:
        config = ModSRAMConfig().with_bitwidth(int(bitwidth))
        tiers = [
            build_simulator(tier, config) for tier in ("hdl", "cycle", "analytical")
        ]
        hdl = tiers[0]
        modulus = _modulus_for(int(bitwidth), rng)
        pairs = _operands(config, modulus, cases, rng)

        events_before = hdl.macro.sim.events
        failed: List[str] = []
        loop_cycles = config.expected_iteration_cycles
        hdl_seconds = 0.0
        cycle_seconds = 0.0
        for a, b in pairs:
            check = cross_check(tiers, a, b, modulus)
            failed.extend(check.failed)
            hdl_seconds += check.seconds[0]
            cycle_seconds += check.seconds[1]
            loop_cycles = check.results[0].report.iteration_cycles
        sim_events = hdl.macro.sim.events - events_before
        rows.append(
            HdlCosimRow(
                bitwidth=int(bitwidth),
                cases=len(pairs),
                iterations=config.iterations,
                iteration_cycles=loop_cycles,
                products_match=not any(
                    name.endswith(" product") for name in failed
                ),
                cycles_match=not any(name.endswith(" report") for name in failed),
                energy_match=not any(name.endswith(" energy") for name in failed),
                sim_events=sim_events,
                events_per_second=(
                    sim_events / hdl_seconds if hdl_seconds > 0 else 0.0
                ),
                hdl_seconds=hdl_seconds,
                cycle_seconds=cycle_seconds,
            )
        )

    paper = build_simulator("hdl", PAPER_CONFIG)
    paper_modulus = _modulus_for(PAPER_CONFIG.bitwidth, rng)
    a = rng.randrange(1 << (2 * PAPER_CONFIG.iterations - 1))
    b = rng.randrange(paper_modulus)
    paper_cycles = checked_multiply(paper, a, b, paper_modulus).report.iteration_cycles
    return HdlCosimResult(
        rows=tuple(rows), seed=seed, paper_iteration_cycles=paper_cycles
    )
