"""Technology risk (Table 3, §3.5).

At-risk transceiver counts per radio access technology (CDMA, GSM, LTE,
UMTS) per WHP class.  The paper finds LTE has the largest at-risk count
in every class (widest footprint) and that no 5G transceivers exist in
the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.radios import RadioType
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass, class_counts
from ..session import artifact, register_stage, session_of

__all__ = ["TechnologyRisk", "technology_risk_analysis"]


@dataclass(frozen=True)
class TechnologyRisk:
    """One row of Table 3 (counts scaled to the paper universe)."""

    technology: str
    very_high: int
    high: int
    moderate: int

    @property
    def total(self) -> int:
        return self.very_high + self.high + self.moderate


def technology_risk_analysis(universe: SyntheticUS) \
        -> list[TechnologyRisk]:
    """Build Table 3 rows in the paper's order (CDMA, GSM, LTE, UMTS)."""
    return session_of(universe).artifact("technology_risk")


@artifact("technology_risk", deps=("whp_classes",))
def _compute_technology_risk(session) -> list[TechnologyRisk]:
    """Table 3 rows: per-radio-technology at-risk counts."""
    universe = session.universe
    counts = class_counts(universe.cells.radio, len(RadioType),
                          session.artifact("whp_classes")).tolist()
    return [TechnologyRisk(
        technology=radio.name,
        very_high=universe.scaled(counts[radio][WHPClass.VERY_HIGH]),
        high=universe.scaled(counts[radio][WHPClass.HIGH]),
        moderate=universe.scaled(counts[radio][WHPClass.MODERATE]),
    ) for radio in (RadioType.CDMA, RadioType.GSM, RadioType.LTE,
                    RadioType.UMTS)]


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

def _export_table3(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    return {"table3": {
        "rows": [asdict(r) for r in session.artifact("technology_risk")],
        "paper": {k: list(v)
                  for k, v in paper.TABLE3_TECHNOLOGY_RISK.items()},
    }}


register_stage("table3", help="technology risk (Table 3)",
               paper="Table 3", artifact="technology_risk",
               render="render_table3", order=30, domain="tables",
               export=_export_table3)
