"""WHP hazard analysis: Figures 6–9 and the §3.3 headline numbers.

Classifies every transceiver by WHP class and aggregates nationally, per
state (Figure 8), and per capita (Figure 9).  Also computes the §3.3
population-served estimate (the paper's ">85 million" figure): the
aggregate population of the counties containing at-risk transceivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.states import StateAssigner
from ..data.universe import SyntheticUS
from ..data.whp import (
    AT_RISK_CLASSES,
    WHP_CLASS_NAMES,
    WHPClass,
    class_counts,
)
from ..obs.trace import span
from ..session import artifact, register_stage, session_of

__all__ = ["HazardSummary", "StateHazard", "hazard_analysis",
           "population_served_at_risk"]


@dataclass(frozen=True)
class StateHazard:
    """Per-state at-risk transceiver counts (scaled to paper universe)."""

    state: str
    moderate: int
    high: int
    very_high: int
    population: int

    @property
    def total(self) -> int:
        return self.moderate + self.high + self.very_high

    def per_thousand(self, whp_class: WHPClass | None = None) -> float:
        """At-risk transceivers per thousand residents (Figure 9)."""
        if whp_class is None:
            count = self.total
        else:
            count = {WHPClass.MODERATE: self.moderate,
                     WHPClass.HIGH: self.high,
                     WHPClass.VERY_HIGH: self.very_high}[whp_class]
        return 1000.0 * count / self.population


@dataclass
class HazardSummary:
    """National + per-state WHP hazard overlay results."""

    class_counts: dict[str, int]          # class name -> scaled count
    class_counts_raw: dict[str, int]      # class name -> raw count
    states: list[StateHazard]             # sorted by total, descending
    classes_per_transceiver: np.ndarray = field(repr=False)

    @property
    def at_risk_total(self) -> int:
        return sum(self.class_counts[WHP_CLASS_NAMES[c]]
                   for c in AT_RISK_CLASSES)

    def top_states(self, n: int = 7,
                   whp_class: WHPClass | None = None) -> list[str]:
        """Figure 8: states ranked by at-risk transceivers."""
        if whp_class is None:
            key = lambda s: s.total
        else:
            key = lambda s: {WHPClass.MODERATE: s.moderate,
                             WHPClass.HIGH: s.high,
                             WHPClass.VERY_HIGH: s.very_high}[whp_class]
        return [s.state for s in
                sorted(self.states, key=key, reverse=True)[:n]]

    def top_states_per_capita(self, n: int = 5,
                              whp_class: WHPClass | None = None) \
            -> list[str]:
        """Figure 9: states ranked by at-risk transceivers per capita."""
        ranked = sorted(self.states,
                        key=lambda s: s.per_thousand(whp_class),
                        reverse=True)
        return [s.state for s in ranked[:n]]


def hazard_analysis(universe: SyntheticUS) -> HazardSummary:
    """Run the Figure 7/8/9 pipeline (one shared result per session)."""
    return session_of(universe).artifact("hazard")


@artifact("hazard", deps=("whp_classes",))
def _compute_hazard(session, hazard: str = "wildfire") -> HazardSummary:
    """National + per-state intensity-class summary (Figures 7-9).

    ``hazard`` selects the intensity surface the per-transceiver
    classes come from; non-wildfire surfaces reuse the same ordinal
    0-5 aggregation (class names stay the WHP vocabulary).
    """
    universe = session.universe
    cells = universe.cells
    classes = session.artifact("whp_classes", hazard=hazard)

    with span("hazard.state_assignment"):
        assigner = StateAssigner()
        state_of = assigner.assign_many(cells.lons, cells.lats)
    with span("hazard.state_aggregation"):
        # Every transceiver has a state, so the national counts are the
        # column sums of the (state, class) counts.
        per_state = class_counts(state_of, len(assigner.abbrs), classes)
        national = per_state.sum(axis=0).tolist()
        states = [StateHazard(
            state=state.abbr,
            moderate=universe.scaled(row[WHPClass.MODERATE]),
            high=universe.scaled(row[WHPClass.HIGH]),
            very_high=universe.scaled(row[WHPClass.VERY_HIGH]),
            population=state.population,
        ) for state, row in zip(assigner.states.values(),
                                per_state.tolist())]
        states.sort(key=lambda s: s.total, reverse=True)
    burnable = [c for c in WHPClass if c != WHPClass.NON_BURNABLE]
    return HazardSummary(
        class_counts={WHP_CLASS_NAMES[c]: universe.scaled(national[c])
                      for c in burnable},
        class_counts_raw={WHP_CLASS_NAMES[c]: national[c]
                          for c in burnable},
        states=states,
        classes_per_transceiver=classes)


def population_served_at_risk(universe: SyntheticUS,
                              summary: HazardSummary | None = None) -> int:
    """§3.3: aggregate population of counties with at-risk transceivers.

    The paper reports >85M people in "the areas served by these
    transceivers"; we interpret areas as counties (the paper's §3.6 uses
    county population as the service index).
    """
    if summary is None:
        return session_of(universe).artifact("population_served")
    return _population_served(session_of(universe), summary)


def _population_served(session, summary: HazardSummary) -> int:
    universe = session.universe
    at_risk = summary.classes_per_transceiver >= int(WHPClass.MODERATE)
    counties = universe.counties
    county_idx = session.artifact("county_assignment")
    idx = np.unique(county_idx[at_risk])
    idx = idx[idx >= 0]
    pops = counties.populations()
    return int(pops[idx].sum())


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("population_served", deps=("hazard", "county_assignment"))
def _population_served_artifact(session) -> int:
    """S3.3 population of counties holding at-risk transceivers."""
    return _population_served(session, session.artifact("hazard"))


def _export_figure7(session, ctx) -> dict:
    from ..data import paper_constants as paper
    hazard = session.artifact("hazard")
    return {"figure7": {
        "class_counts": hazard.class_counts,
        "at_risk_total": hazard.at_risk_total,
        "population_served": session.artifact("population_served"),
        "paper_counts": paper.WHP_AT_RISK_COUNTS,
        "paper_total": paper.WHP_AT_RISK_TOTAL,
    }}


def _export_figure8(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    hazard = session.artifact("hazard")
    return {"figure8": {
        "states": [asdict(s) for s in hazard.states[:15]],
        "paper_top_moderate": list(paper.TOP_MODERATE_STATES),
    }}


register_stage("fig7", help="WHP hazard counts (Figure 7)",
               paper="Figure 7", artifact="hazard",
               render="render_figure7", order=50, domain="figures",
               export=_export_figure7)
register_stage("fig8", help="top states (Figure 8)",
               paper="Figure 8", artifact="hazard",
               render="render_figure8", order=60, domain="figures",
               export=_export_figure8)
register_stage("fig9", help="per-capita risk (Figure 9)",
               paper="Figure 9", artifact="hazard",
               render="render_figure9", order=70, domain="figures")
