"""Provider risk (Table 2, §3.5).

Per provider group: transceivers in each at-risk WHP class, both as
scaled absolute counts and as a percentage of that provider's fleet.
Also surfaces the count of distinct regional carriers with at-risk
infrastructure (the paper's footnote: 46 smaller providers).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.cells import PROVIDER_GROUPS
from ..data.providers import MAJOR_PROVIDERS, provider_registry
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass, class_counts
from ..session import artifact, register_stage, session_of

__all__ = ["ProviderRisk", "provider_risk_analysis",
           "regional_carriers_at_risk"]


@dataclass(frozen=True)
class ProviderRisk:
    """One row of Table 2."""

    provider: str
    fleet_size: int                     # scaled universe transceivers
    moderate: int
    high: int
    very_high: int

    def pct(self, whp_class: WHPClass) -> float:
        """Percent of the provider's fleet in the class."""
        count = {WHPClass.MODERATE: self.moderate,
                 WHPClass.HIGH: self.high,
                 WHPClass.VERY_HIGH: self.very_high}[whp_class]
        if self.fleet_size == 0:
            return 0.0
        return 100.0 * count / self.fleet_size

    @property
    def total_at_risk(self) -> int:
        return self.moderate + self.high + self.very_high


def provider_risk_analysis(universe: SyntheticUS) -> list[ProviderRisk]:
    """Build Table 2 rows in the paper's provider order."""
    return session_of(universe).artifact("provider_risk")


@artifact("provider_risk", deps=("whp_classes",))
def _compute_provider_risk(session) -> list[ProviderRisk]:
    """Table 2 rows: per-provider at-risk counts."""
    universe = session.universe
    counts = class_counts(universe.cells.provider_group,
                          len(PROVIDER_GROUPS),
                          session.artifact("whp_classes")).tolist()
    return [ProviderRisk(
        provider=name,
        fleet_size=universe.scaled(sum(row)),
        moderate=universe.scaled(row[WHPClass.MODERATE]),
        high=universe.scaled(row[WHPClass.HIGH]),
        very_high=universe.scaled(row[WHPClass.VERY_HIGH]),
    ) for name, row in zip(PROVIDER_GROUPS, counts)]


def regional_carriers_at_risk(universe: SyntheticUS) -> int:
    """Count distinct regional carriers with at-risk infrastructure.

    The paper's footnote 1 reports 46.  A carrier counts when at least
    one of its transceivers (identified by PLMN) is in a moderate+ cell.
    """
    return session_of(universe).artifact("regional_carriers")


@artifact("regional_carriers", deps=("whp_classes",))
def _compute_regional_carriers(session) -> int:
    """Footnote 1: distinct regional carriers with at-risk gear."""
    universe = session.universe
    cells = universe.cells
    classes = session.artifact("whp_classes")
    at_risk = classes >= int(WHPClass.MODERATE)
    others = cells.provider_group == PROVIDER_GROUPS.index("Others")
    mask = at_risk & others
    plmns = set(zip(cells.mcc[mask].tolist(), cells.mnc[mask].tolist()))
    carriers = set()
    registry = provider_registry()
    plmn_owner = {(p.mcc, p.mnc): prov.name
                  for prov in registry.values() for p in prov.plmns
                  if prov.name not in MAJOR_PROVIDERS}
    for key in plmns:
        owner = plmn_owner.get(key)
        if owner is not None:
            carriers.add(owner)
    return len(carriers)


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

def _export_table2(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    return {"table2": {
        "rows": [asdict(r) for r in session.artifact("provider_risk")],
        "regional_carriers": session.artifact("regional_carriers"),
        "paper": {k: {c: list(v) for c, v in d.items()}
                  for k, d in paper.TABLE2_PROVIDER_RISK.items()},
    }}


register_stage("table2", help="provider risk (Table 2)",
               paper="Table 2", artifact="provider_risk",
               render="render_table2", order=20, domain="tables",
               export=_export_table2)
