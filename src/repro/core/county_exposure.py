"""Per-county historical fire exposure.

The paper's validation hinted at county-level structure (the 2019
misses clustered north of Los Angeles); this analysis makes it a
first-class output: for each county, how many transceivers sat inside
fire perimeters across 2000–2018, how many fire-years touched it, and
the resulting ranking of chronically-exposed counties — the view an
emergency-communications planner (the paper's stated audience) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.historical_stats import STUDY_YEARS
from ..data.universe import SyntheticUS
from ..session import artifact, register_stage, session_of

__all__ = ["CountyExposure", "county_exposure_analysis"]


@dataclass(frozen=True)
class CountyExposure:
    """One county's historical exposure (scaled counts)."""

    county: str
    state: str
    population: int
    transceiver_exposures: int   # Σ over years of in-perimeter counts
    years_touched: int           # distinct years with any exposure

    @property
    def chronic(self) -> bool:
        """Exposed in at least a quarter of the study years."""
        return self.years_touched >= len(STUDY_YEARS) // 4


def county_exposure_analysis(universe: SyntheticUS,
                             years: tuple[int, ...] = STUDY_YEARS,
                             top_n: int | None = None) \
        -> list[CountyExposure]:
    """Rank counties by historical in-perimeter transceiver exposure."""
    rows = session_of(universe).artifact("county_exposure",
                                         years=tuple(years))
    if top_n is not None:
        rows = rows[:top_n]
    return rows


@artifact("county_exposure",
          deps=("season_overlay", "county_assignment"))
def _compute_county_exposure(
        session,
        years: tuple[int, ...] = STUDY_YEARS) -> list[CountyExposure]:
    """Counties ranked by historical in-perimeter exposure."""
    universe = session.universe
    counties = universe.counties

    county_idx = session.artifact("county_assignment")
    n_counties = len(counties.counties)
    exposures = np.zeros(n_counties, dtype=np.int64)
    touched = np.zeros(n_counties, dtype=np.int64)

    for year in years:
        result = session.artifact("season_overlay", year=year)
        hit_counties = county_idx[result.in_perimeter_mask]
        hit_counties = hit_counties[hit_counties >= 0]
        if len(hit_counties) == 0:
            continue
        counts = np.bincount(hit_counties, minlength=n_counties)
        exposures += counts
        touched += (counts > 0).astype(np.int64)

    rows = []
    for i in np.nonzero(exposures)[0]:
        county = counties.counties[int(i)]
        rows.append(CountyExposure(
            county=county.name,
            state=county.state,
            population=county.population,
            transceiver_exposures=universe.scaled(exposures[i]),
            years_touched=int(touched[i]),
        ))
    rows.sort(key=lambda r: r.transceiver_exposures, reverse=True)
    return rows


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("county_assignment")
def _county_assignment_artifact(session) -> np.ndarray:
    """Shared county index per transceiver (-1 = unassigned)."""
    universe = session.universe
    cells = universe.cells
    return universe.counties.assign_many(cells.lons, cells.lats)


register_stage("counties", help="chronically-exposed counties",
               paper="§3.3", artifact="county_exposure",
               render="render_counties", domain="infrastructure")
