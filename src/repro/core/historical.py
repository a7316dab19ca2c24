"""Historical analysis: Table 1 and Figures 3–4 (§3.1).

For each year 2000–2018 the pipeline overlays that year's fire perimeters
with the transceiver universe and reports the paper's Table 1 columns:
number of fires, acres burned, transceivers within wildfire perimeters,
and transceivers per million acres burned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.historical_stats import STUDY_YEARS, year_stats
from ..data.universe import SyntheticUS
from ..session import artifact, register_stage, session_of

__all__ = ["Table1Row", "historical_analysis", "total_in_perimeters"]


@dataclass(frozen=True)
class Table1Row:
    """One year of the paper's Table 1."""

    year: int
    n_fires: int
    acres_burned_millions: float
    transceivers_in_perimeters: int          # raw synthetic count
    transceivers_in_perimeters_scaled: int   # rescaled to paper universe
    transceivers_per_m_acres: float          # scaled count / M acres


def historical_analysis(universe: SyntheticUS,
                        years: tuple[int, ...] = STUDY_YEARS) \
        -> list[Table1Row]:
    """Build Table 1 (most-recent year first, as in the paper)."""
    return session_of(universe).artifact("table1", years=tuple(years))


def total_in_perimeters(universe: SyntheticUS,
                        years: tuple[int, ...] = STUDY_YEARS) \
        -> tuple[int, np.ndarray]:
    """Figure 4: union of transceivers inside any perimeter, 2000-2018.

    Returns (scaled count, union mask over the universe).
    """
    return session_of(universe).artifact("perimeter_union",
                                         years=tuple(years))


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("table1", deps=("season_overlay",))
def _table1_artifact(session,
                     years: tuple[int, ...] = STUDY_YEARS) \
        -> list[Table1Row]:
    """Table 1 rows, one per study year (shared season overlays)."""
    universe = session.universe
    rows = []
    scale = universe.universe_scale
    for year in years:
        result = session.artifact("season_overlay", year=year)
        stats = year_stats(year)
        scaled = result.scaled_count(scale)
        rows.append(Table1Row(
            year=year,
            n_fires=stats.n_fires,
            acres_burned_millions=stats.acres_burned,
            transceivers_in_perimeters=result.n_in_perimeter,
            transceivers_in_perimeters_scaled=scaled,
            transceivers_per_m_acres=scaled / stats.acres_burned,
        ))
    return sorted(rows, key=lambda r: -r.year)


@artifact("perimeter_union", deps=("season_overlay",))
def _perimeter_union_artifact(session,
                              years: tuple[int, ...] = STUDY_YEARS) \
        -> tuple[int, np.ndarray]:
    """(scaled count, union mask) of transceivers in any perimeter."""
    universe = session.universe
    union = np.zeros(len(universe.cells), dtype=bool)
    for year in years:
        result = session.artifact("season_overlay", year=year)
        union |= result.in_perimeter_mask
    return universe.scaled(union.sum()), union


def _export_table1(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    rows = session.artifact("table1")
    total, _ = session.artifact("perimeter_union")
    return {"table1": {
        "rows": [asdict(r) for r in rows],
        "total_in_perimeters": total,
        "paper_total": paper.TOTAL_IN_PERIMETERS_2000_2018,
    }}


register_stage("table1", help="historical analysis (Table 1)",
               paper="Table 1", artifact="table1",
               render="render_table1", order=10, domain="tables",
               export=_export_table1)
