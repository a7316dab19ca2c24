"""Metro-area analysis: Figures 12–13 and the §3.6 city counts.

Transceivers are attributed to the nearest metro anchor within a fixed
great-circle radius; per-metro at-risk counts by WHP class produce the
Figure 12 ranking, and the §3.6 city-level "WHP very high × county very
dense" counts (Los Angeles 3,547; Miami 1,536; ... Las Vegas 10).

The paper groups San Francisco and San Jose into one Bay-Area entry; we
do the same via ``CITY_GROUPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data.cities import PAPER_METROS, city_by_name
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass, class_counts
from ..geo.geometry import BBox
from ..geo.projection import EARTH_RADIUS_M, haversine_m
from ..session import artifact, register_stage, session_of

__all__ = ["MetroRisk", "metro_risk_analysis", "city_very_high_counts",
           "CITY_GROUPS", "DEFAULT_METRO_RADIUS_M"]

#: Metro assignment radius (~100 km covers a metro's WUI fringe).
DEFAULT_METRO_RADIUS_M = 100_000.0

#: City groupings used in §3.6 (Bay Area combines SF and San Jose).
CITY_GROUPS = {
    "San Francisco/San Jose": ("San Francisco", "San Jose"),
    "Los Angeles": ("Los Angeles",),
    "San Diego": ("San Diego",),
    "Miami": ("Miami", "Fort Lauderdale"),
    "Phoenix": ("Phoenix",),
    "New York City": ("New York City",),
    "Las Vegas": ("Las Vegas",),
}


@dataclass(frozen=True)
class MetroRisk:
    """Per-metro at-risk transceiver counts (scaled)."""

    metro: str
    moderate: int
    high: int
    very_high: int

    @property
    def total(self) -> int:
        return self.moderate + self.high + self.very_high


def _assign_metro(universe: SyntheticUS, metro_names: tuple[str, ...],
                  radius_m: float) -> np.ndarray:
    """Index of the nearest listed metro within radius, else -1.

    Each metro's haversine runs only on the points inside a box that
    holds its radius: ``r/R`` of latitude either side, and ``2
    asin(sin(r/2R) / cos(|lat| + r/R))`` of longitude, the haversine's
    bound on ``dlon`` for a point within ``r``; both are widened by 1%.
    Metros run in list order, so ties resolve as in a full scan.
    """
    lons, lats = universe.cells.lons, universe.cells.lats
    best_idx = np.full(len(lons), -1, dtype=np.int64)
    best_d = np.full(len(lons), np.inf)
    ang = max(radius_m, 0.0) / EARTH_RADIUS_M
    half_lat = 1.01 * math.degrees(ang)
    for i, name in enumerate(metro_names):
        city = city_by_name(name)
        edge = math.radians(abs(city.lat)) + ang
        ratio = (math.sin(ang / 2.0) / math.cos(edge)
                 if edge < math.pi / 2.0 else 1.0)
        half_lon = (1.01 * math.degrees(2.0 * math.asin(ratio))
                    if ratio < 1.0 else 360.0)
        box = BBox(city.lon - half_lon, city.lat - half_lat,
                   city.lon + half_lon, city.lat + half_lat)
        idx = np.flatnonzero(box.contains_many(lons, lats))
        d = haversine_m(lons[idx], lats[idx],
                        np.full(len(idx), city.lon),
                        np.full(len(idx), city.lat))
        closer = (d < best_d[idx]) & (d <= radius_m)
        best_idx[idx[closer]] = i
        best_d[idx[closer]] = d[closer]
    return best_idx


def metro_risk_analysis(universe: SyntheticUS,
                        metros: tuple[str, ...] = PAPER_METROS,
                        radius_m: float = DEFAULT_METRO_RADIUS_M) \
        -> list[MetroRisk]:
    """Figure 12: metros ranked by at-risk transceivers."""
    return session_of(universe).artifact(
        "metro_risk", metros=tuple(metros), radius_m=radius_m)


@artifact("metro_risk", deps=("whp_classes",))
def _compute_metro_risk(session,
                        metros: tuple[str, ...] = PAPER_METROS,
                        radius_m: float = DEFAULT_METRO_RADIUS_M) \
        -> list[MetroRisk]:
    """Figure 12 metro ranking."""
    universe = session.universe
    counts = class_counts(_assign_metro(universe, metros, radius_m),
                          len(metros),
                          session.artifact("whp_classes")).tolist()
    rows = [MetroRisk(
        metro=name,
        moderate=universe.scaled(row[WHPClass.MODERATE]),
        high=universe.scaled(row[WHPClass.HIGH]),
        very_high=universe.scaled(row[WHPClass.VERY_HIGH]),
    ) for name, row in zip(metros, counts)]
    rows.sort(key=lambda r: r.total, reverse=True)
    return rows


def city_very_high_counts(universe: SyntheticUS,
                          radius_m: float = DEFAULT_METRO_RADIUS_M) \
        -> dict[str, int]:
    """§3.6: WHP-VH transceivers in >1.5M counties, grouped by city."""
    return session_of(universe).artifact("city_vh_counts",
                                         radius_m=radius_m)


@artifact("city_vh_counts", deps=("population_impact",))
def _compute_city_vh_counts(
        session, radius_m: float = DEFAULT_METRO_RADIUS_M) \
        -> dict[str, int]:
    """S3.6 per-city WHP-VH x very-dense-county counts."""
    universe = session.universe
    impact = session.artifact("population_impact")

    flat_names: list[str] = []
    group_of: list[str] = []
    for group, members in CITY_GROUPS.items():
        for member in members:
            flat_names.append(member)
            group_of.append(group)
    metro_idx = _assign_metro(universe, tuple(flat_names), radius_m)
    hits = metro_idx[impact.panel_vh_both_mask]
    raw = np.bincount(hits[hits >= 0], minlength=len(flat_names))

    counts: dict[str, int] = {g: 0 for g in CITY_GROUPS}
    for group, count in zip(group_of, raw.tolist()):
        counts[group] += universe.scaled(count)
    return counts


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

def _export_figure12(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    return {
        "figure12": {
            "metros": [asdict(m)
                       for m in session.artifact("metro_risk")],
        },
        "cities_s36": {
            "counts": session.artifact("city_vh_counts"),
            "paper": paper.CITY_VERY_HIGH_COUNTS,
        },
    }


register_stage("fig12", help="metro ranking (Figure 12)",
               paper="Figure 12", artifact="metro_risk",
               render="render_figure12", order=90, domain="figures",
               export=_export_figure12)
