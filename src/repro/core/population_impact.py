"""Population-impact analysis: Figures 10–11 and §3.6.

Buckets at-risk transceivers by the population-density category of their
county — moderately dense (200k–500k), dense (500k–1.5M), very dense
(>1.5M) — producing the Figure 10 matrix, the Figure 11 map subsets, and
the paper's headline "57,504 transceivers in the most densely populated
counties".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.counties import POP_CATEGORY_NAMES, PopCategory
from ..data.universe import SyntheticUS
from ..data.whp import (
    AT_RISK_CLASSES,
    WHP_CLASS_NAMES,
    WHPClass,
    class_counts,
)
from ..session import artifact, register_stage, session_of

__all__ = ["PopulationImpact", "population_impact_analysis"]


@dataclass
class PopulationImpact:
    """WHP class × county density matrix plus the subset masks."""

    # matrix[whp class name][pop category name] -> scaled count
    matrix: dict[str, dict[str, int]]
    at_risk_in_pop_counties: int        # WHP M+ in counties >200k
    at_risk_in_vh_pop_counties: int     # WHP M+ in counties >1.5M
    vh_whp_in_vh_pop_counties: int      # WHP VH in counties >1.5M
    n_vh_pop_counties: int
    # masks over the transceiver universe for Figure 11's three panels
    panel_all_mask: np.ndarray = field(repr=False)
    panel_vh_pop_mask: np.ndarray = field(repr=False)
    panel_vh_both_mask: np.ndarray = field(repr=False)


def population_impact_analysis(universe: SyntheticUS) -> PopulationImpact:
    """Run the §3.6 pipeline."""
    return session_of(universe).artifact("population_impact")


@artifact("population_impact", deps=("whp_classes", "county_assignment"))
def _compute_population_impact(session) -> PopulationImpact:
    """Figure 10 WHP x county-density matrix plus panel masks."""
    universe = session.universe
    cells = universe.cells
    classes = session.artifact("whp_classes")
    counties = universe.counties

    county_idx = session.artifact("county_assignment")
    county_cats = counties.categories()
    cat_per_cell = np.full(len(cells), int(PopCategory.RURAL),
                           dtype=np.int8)
    ok = county_idx >= 0
    cat_per_cell[ok] = county_cats[county_idx[ok]]

    counts = class_counts(cat_per_cell, len(PopCategory), classes).tolist()
    matrix = {
        WHP_CLASS_NAMES[whp_class]: {
            POP_CATEGORY_NAMES[cat]: universe.scaled(counts[cat][whp_class])
            for cat in (PopCategory.POP_M, PopCategory.POP_H,
                        PopCategory.POP_VH)}
        for whp_class in AT_RISK_CLASSES}

    at_risk = classes >= int(WHPClass.MODERATE)
    in_pop = cat_per_cell >= int(PopCategory.POP_M)
    in_vh_pop = cat_per_cell == int(PopCategory.POP_VH)
    panel_all = at_risk & in_pop
    panel_vh_pop = at_risk & in_vh_pop
    panel_vh_both = (classes == int(WHPClass.VERY_HIGH)) & in_vh_pop

    return PopulationImpact(
        matrix=matrix,
        at_risk_in_pop_counties=universe.scaled(panel_all.sum()),
        at_risk_in_vh_pop_counties=universe.scaled(panel_vh_pop.sum()),
        vh_whp_in_vh_pop_counties=universe.scaled(panel_vh_both.sum()),
        n_vh_pop_counties=len(counties.very_dense()),
        panel_all_mask=panel_all,
        panel_vh_pop_mask=panel_vh_pop,
        panel_vh_both_mask=panel_vh_both,
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

def _export_figure10(session, ctx) -> dict:
    from ..data import paper_constants as paper
    impact = session.artifact("population_impact")
    return {"figure10": {
        "matrix": impact.matrix,
        "at_risk_in_vh_pop_counties": impact.at_risk_in_vh_pop_counties,
        "n_vh_pop_counties": impact.n_vh_pop_counties,
        "paper": paper.POP_IMPACT,
    }}


register_stage("fig10", help="population impact (Figure 10)",
               paper="Figure 10", artifact="population_impact",
               render="render_figure10", order=80, domain="figures",
               export=_export_figure10)
