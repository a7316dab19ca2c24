"""Risk prioritization and mitigation planning (§3.10).

The paper argues mitigation resources should flow to the sites where
hazard and impact coincide.  This module turns the analyses into an
actionable ranking: a composite risk score per cell *site* combining

* WHP hazard class (likelihood proxy),
* population served (county population — the paper's impact index),
* tenancy (number of transceivers / providers on the site), and
* power-dependence (the §3.2 finding that power loss dominates means
  sites without hardening are scored by their full hazard; a mitigation
  plan credits backup power before vegetation management).

``mitigation_plan`` then allocates a budget of site-hardening actions
greedily by score, reporting expected coverage — the decision-support
output the paper's §3.10 sketches in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..session import artifact, register_stage, session_of

__all__ = ["MitigationAction", "SiteRisk", "rank_sites", "MitigationPlan",
           "mitigation_plan"]

#: Relative hazard weight per WHP class (likelihood proxy).
_HAZARD_WEIGHT = {
    int(WHPClass.NON_BURNABLE): 0.0,
    int(WHPClass.VERY_LOW): 0.05,
    int(WHPClass.LOW): 0.15,
    int(WHPClass.MODERATE): 0.40,
    int(WHPClass.HIGH): 0.70,
    int(WHPClass.VERY_HIGH): 1.00,
}


class MitigationAction(Enum):
    """§3.10's mitigation measures, ordered by the outage categories."""

    BACKUP_POWER = "backup power (solar + battery)"
    VEGETATION_MANAGEMENT = "vegetation management around site"
    FIRE_RESISTANT_MATERIALS = "fire-retardant coatings / materials"
    BACKHAUL_REDUNDANCY = "redundant (wireless) backhaul"


@dataclass(frozen=True)
class SiteRisk:
    """A ranked cell site."""

    site_id: int
    lon: float
    lat: float
    whp_class: int
    n_transceivers: int
    n_providers: int
    county: int                # county index, -1 when the site has none
    county_population: int
    score: float


def rank_sites(universe: SyntheticUS, top_n: int | None = None) \
        -> list[SiteRisk]:
    """Score and rank every at-risk site.

    Score = hazard weight × log10(county population) × tenancy factor.
    """
    sites = session_of(universe).artifact("site_ranking")
    if top_n is not None:
        sites = sites[:top_n]
    return sites


@artifact("site_ranking", deps=("whp_classes", "county_assignment"))
def _compute_site_ranking(session) -> list[SiteRisk]:
    """Every at-risk site scored and ranked (S3.10)."""
    universe = session.universe
    cells = universe.cells
    classes = session.artifact("whp_classes")
    counties = universe.counties
    county_idx = session.artifact("county_assignment")
    county_pops = counties.populations()

    table = cells.sites()
    site_class = table.max(classes)
    n_transceivers = np.diff(np.append(table.starts, len(cells)))
    n_providers = sum(table.any(cells.provider_group == g)
                      for g in np.unique(cells.provider_group))
    # Hazard weights rise with the class, so the moderate-or-worse
    # sites are the ones scored.
    keep = np.flatnonzero(site_class >= int(WHPClass.MODERATE))
    sites: list[SiteRisk] = []
    for site_id, lon, lat, whp_class, n_tx, n_prov, ci in zip(
            table.ids[keep].tolist(), table.lons[keep].tolist(),
            table.lats[keep].tolist(), site_class[keep].tolist(),
            n_transceivers[keep].tolist(), n_providers[keep].tolist(),
            county_idx[table.order[table.starts[keep]]].tolist()):
        hazard = _HAZARD_WEIGHT[whp_class]
        pop = int(county_pops[ci]) if ci >= 0 else 10_000
        tenancy = 1.0 + 0.25 * (n_prov - 1)
        score = hazard * np.log10(max(pop, 10)) * tenancy
        sites.append(SiteRisk(
            site_id=site_id,
            lon=lon,
            lat=lat,
            whp_class=whp_class,
            n_transceivers=n_tx,
            n_providers=n_prov,
            county=ci,
            county_population=pop,
            score=float(score),
        ))
    sites.sort(key=lambda s: s.score, reverse=True)
    return sites


@dataclass
class MitigationPlan:
    """A budgeted hardening plan."""

    budget_sites: int
    hardened: list[SiteRisk]
    actions: dict[int, list[MitigationAction]]   # site_id -> actions
    covered_transceivers: int
    covered_population: int


def mitigation_plan(universe: SyntheticUS,
                    budget_sites: int = 100) -> MitigationPlan:
    """Greedy hardening plan over the ranked sites.

    Every hardened site gets backup power first (§3.2: power is the
    dominant threat); very-high-hazard sites additionally get vegetation
    management and fire-resistant materials; multi-tenant sites get
    backhaul redundancy (more users depend on the fiber lateral).
    """
    ranked = rank_sites(universe, top_n=budget_sites)
    actions: dict[int, list[MitigationAction]] = {}
    covered_pop = 0
    covered_tx = 0
    seen_counties: set[int] = set()
    for site in ranked:
        acts = [MitigationAction.BACKUP_POWER]
        if site.whp_class >= int(WHPClass.HIGH):
            acts.append(MitigationAction.VEGETATION_MANAGEMENT)
        if site.whp_class == int(WHPClass.VERY_HIGH):
            acts.append(MitigationAction.FIRE_RESISTANT_MATERIALS)
        if site.n_providers > 1:
            acts.append(MitigationAction.BACKHAUL_REDUNDANCY)
        actions[site.site_id] = acts
        covered_tx += site.n_transceivers
        if site.county not in seen_counties:
            covered_pop += site.county_population
            seen_counties.add(site.county)
    return MitigationPlan(
        budget_sites=budget_sites,
        hardened=ranked,
        actions=actions,
        covered_transceivers=covered_tx,
        covered_population=covered_pop,
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

register_stage("mitigation", help="site hardening ranking (S3.10)",
               paper="§3.10", artifact="site_ranking",
               render="render_mitigation", domain="infrastructure")
