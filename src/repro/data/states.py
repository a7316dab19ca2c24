"""The 48 conterminous US states + DC: simplified borders and metadata.

The paper's per-state results (Figures 8 and 9) need a point→state
assignment for millions of transceivers and a per-state population.  We
embed hand-simplified polygons (6–25 vertices per ring) that preserve each
state's position, approximate shape and neighbor relations.  They are not
cartographically exact; assignment uses exact point-in-polygon with a
nearest-centroid fallback for the thin slivers between simplified borders,
so every CONUS point gets exactly one state.

``whp_propensity`` is the state-level wildland-fuel weight used by the
synthetic Wildfire Hazard Potential model (:mod:`repro.data.whp`) —
calibrated so the WHP class geography matches the paper's (high in the
West and Southeast, low in the urban Northeast and agricultural Midwest).

2018 population estimates are from the US Census Bureau (rounded to
thousands); they drive the per-capita analysis of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..geo.geometry import BBox, MultiPolygon, Polygon, first_containing
from ..geo.index import STRTree

__all__ = ["State", "conus_states", "conus_bbox", "StateAssigner",
           "WESTERN_STATES", "SOUTHEASTERN_STATES"]

#: States the paper groups as "western US" (wildfire-dominant region).
WESTERN_STATES = frozenset({
    "WA", "OR", "CA", "NV", "ID", "MT", "WY", "UT", "CO", "AZ", "NM",
})

#: Southeastern wildfire pocket states (Florida and the Carolina coast).
SOUTHEASTERN_STATES = frozenset({"FL", "GA", "SC", "NC", "AL", "MS", "LA"})


@dataclass(frozen=True)
class State:
    """A conterminous US state (or DC)."""

    abbr: str
    name: str
    fips: str
    population: int
    whp_propensity: float
    wui_intermix: float
    geometry: MultiPolygon

    @property
    def bbox(self) -> BBox:
        return self.geometry.bbox

    def contains(self, lon: float, lat: float) -> bool:
        return self.geometry.contains(lon, lat)


# abbr: (name, fips, 2018 population, whp propensity, wui intermix,
#        [rings...])
_STATE_TABLE: dict[str, tuple] = {
    "WA": ("Washington", "53", 7_535_000, 0.45, 0.30, [[
        (-124.8, 46.25), (-124.8, 48.4), (-123.2, 48.3), (-123.0, 49.0),
        (-117.03, 49.0), (-117.03, 46.0), (-118.0, 46.0), (-119.0, 45.9),
        (-121.0, 45.65), (-122.3, 45.55), (-123.5, 46.25)]]),
    "OR": ("Oregon", "41", 4_191_000, 0.60, 0.22, [[
        (-124.6, 42.0), (-124.8, 46.2), (-123.5, 46.2), (-122.3, 45.5),
        (-121.0, 45.6), (-119.0, 45.85), (-116.9, 46.0), (-117.03, 44.2),
        (-117.03, 42.0)]]),
    "CA": ("California", "06", 39_557_000, 0.95, 0.55, [[
        (-124.2, 42.0), (-124.4, 40.4), (-123.8, 39.5), (-122.5, 37.8),
        (-121.9, 36.6), (-120.6, 34.6), (-118.3, 33.7), (-117.1, 32.53),
        (-114.72, 32.72), (-114.6, 34.0), (-114.15, 34.3), (-114.6, 35.0),
        (-120.0, 39.0), (-120.0, 42.0)]]),
    "NV": ("Nevada", "32", 3_034_000, 0.62, 0.58, [[
        (-120.0, 42.0), (-120.0, 39.0), (-114.6, 35.0), (-114.05, 36.2),
        (-114.05, 42.0)]]),
    "ID": ("Idaho", "16", 1_754_000, 0.55, 0.22, [[
        (-117.03, 42.0), (-117.03, 44.2), (-116.9, 46.0), (-117.03, 46.0),
        (-117.03, 49.0), (-116.05, 49.0), (-115.0, 47.5), (-114.0, 46.6),
        (-113.0, 45.6), (-111.05, 44.5), (-111.05, 42.0)]]),
    "MT": ("Montana", "30", 1_062_000, 0.50, 0.18, [[
        (-116.05, 49.0), (-104.05, 49.0), (-104.05, 45.0), (-111.05, 45.0),
        (-111.05, 44.5), (-113.0, 45.6), (-114.0, 46.6), (-115.0, 47.5),
        (-116.05, 48.0)]]),
    "WY": ("Wyoming", "56", 578_000, 0.55, 0.18, [[
        (-111.05, 41.0), (-111.05, 45.0), (-104.05, 45.0), (-104.05, 41.0)]]),
    "UT": ("Utah", "49", 3_161_000, 0.80, 0.68, [[
        (-114.05, 42.0), (-114.05, 37.0), (-109.05, 37.0), (-109.05, 41.0),
        (-111.05, 41.0), (-111.05, 42.0)]]),
    "CO": ("Colorado", "08", 5_696_000, 0.62, 0.38, [[
        (-109.05, 37.0), (-109.05, 41.0), (-102.05, 41.0), (-102.05, 37.0)]]),
    "AZ": ("Arizona", "04", 7_172_000, 0.70, 0.32, [[
        (-114.05, 37.0), (-114.05, 36.2), (-114.6, 35.0), (-114.72, 32.72),
        (-111.07, 31.33), (-109.05, 31.33), (-109.05, 37.0)]]),
    "NM": ("New Mexico", "35", 2_095_000, 0.58, 0.58, [[
        (-109.05, 37.0), (-109.05, 31.33), (-108.2, 31.33), (-108.2, 31.78),
        (-106.53, 31.78), (-106.6, 32.0), (-103.0, 32.0), (-103.0, 37.0)]]),
    "ND": ("North Dakota", "38", 760_000, 0.25, 0.15, [[
        (-104.05, 49.0), (-97.2, 49.0), (-96.6, 46.6), (-96.55, 45.94),
        (-104.05, 45.94)]]),
    "SD": ("South Dakota", "46", 882_000, 0.35, 0.18, [[
        (-104.05, 45.94), (-96.55, 45.94), (-96.45, 43.0), (-104.05, 43.0)]]),
    "NE": ("Nebraska", "31", 1_929_000, 0.30, 0.18, [[
        (-104.05, 43.0), (-96.45, 43.0), (-95.9, 42.5), (-95.3, 40.0),
        (-102.05, 40.0), (-102.05, 41.0), (-104.05, 41.0)]]),
    "KS": ("Kansas", "20", 2_912_000, 0.32, 0.18, [[
        (-102.05, 40.0), (-95.3, 40.0), (-94.6, 39.1), (-94.62, 37.0),
        (-102.05, 37.0)]]),
    "OK": ("Oklahoma", "40", 3_943_000, 0.50, 0.30, [[
        (-103.0, 37.0), (-94.62, 37.0), (-94.43, 35.4), (-94.48, 33.64),
        (-95.5, 33.9), (-96.9, 33.8), (-98.1, 34.1), (-99.2, 34.2),
        (-100.0, 34.56), (-100.0, 36.5), (-103.0, 36.5)]]),
    "TX": ("Texas", "48", 28_702_000, 0.65, 0.50, [[
        (-106.6, 32.0), (-106.65, 31.70), (-104.9, 30.6), (-104.0, 29.3),
        (-103.1, 29.0), (-102.3, 29.87), (-101.4, 29.77), (-100.0, 28.7),
        (-99.5, 27.5), (-99.1, 26.4), (-97.15, 25.95), (-97.4, 27.3),
        (-96.4, 28.4), (-95.0, 29.1), (-93.8, 29.7), (-93.7, 30.05),
        (-94.0, 31.0), (-94.04, 33.55), (-94.48, 33.64), (-95.5, 33.9),
        (-96.9, 33.8), (-98.1, 34.1), (-99.2, 34.2), (-100.0, 34.56),
        (-100.0, 36.5), (-103.0, 36.5), (-103.0, 32.0)]]),
    "MN": ("Minnesota", "27", 5_611_000, 0.35, 0.22, [[
        (-97.2, 49.0), (-95.15, 49.0), (-94.8, 49.3), (-93.8, 48.6),
        (-92.0, 48.45), (-89.6, 48.0), (-92.1, 46.8), (-92.3, 46.6),
        (-92.8, 45.6), (-92.75, 44.7), (-91.3, 43.5), (-96.45, 43.5),
        (-96.45, 45.3), (-96.55, 45.94), (-96.6, 46.6)]]),
    "IA": ("Iowa", "19", 3_156_000, 0.15, 0.12, [[
        (-96.45, 43.5), (-91.2, 43.5), (-90.14, 41.8), (-91.0, 41.0),
        (-91.4, 40.38), (-95.8, 40.6), (-96.1, 41.5), (-96.45, 42.5)]]),
    "MO": ("Missouri", "29", 6_126_000, 0.30, 0.20, [[
        (-95.8, 40.6), (-91.4, 40.38), (-90.2, 38.9), (-89.5, 37.9),
        (-89.2, 36.6), (-89.5, 36.0), (-90.3, 36.0), (-90.3, 36.5),
        (-94.62, 36.5), (-94.62, 37.0), (-94.6, 39.1), (-94.9, 39.4),
        (-95.3, 40.0)]]),
    "AR": ("Arkansas", "05", 3_014_000, 0.48, 0.30, [[
        (-94.62, 36.5), (-90.3, 36.5), (-90.3, 36.0), (-89.7, 36.0),
        (-90.3, 35.0), (-91.1, 33.8), (-91.2, 33.0), (-94.04, 33.0),
        (-94.04, 33.55), (-94.48, 33.64), (-94.43, 35.4)]]),
    "LA": ("Louisiana", "22", 4_660_000, 0.45, 0.35, [[
        (-94.04, 33.0), (-91.2, 33.0), (-91.6, 31.0), (-89.7, 31.0),
        (-89.7, 30.2), (-89.0, 29.2), (-90.2, 29.0), (-91.3, 29.5),
        (-92.3, 29.5), (-93.8, 29.7), (-93.7, 30.05), (-93.7, 31.0),
        (-94.04, 31.0)]]),
    "MS": ("Mississippi", "28", 2_987_000, 0.52, 0.38, [[
        (-91.2, 33.0), (-91.1, 33.8), (-90.3, 35.0), (-88.2, 35.0),
        (-88.4, 31.0), (-88.4, 30.2), (-89.6, 30.18), (-89.7, 30.2),
        (-89.7, 31.0), (-91.6, 31.0)]]),
    "AL": ("Alabama", "01", 4_888_000, 0.55, 0.40, [[
        (-88.2, 35.0), (-85.6, 35.0), (-85.18, 32.87), (-85.0, 31.0),
        (-87.6, 31.0), (-87.4, 30.5), (-88.0, 30.2), (-88.4, 30.2),
        (-88.4, 31.0)]]),
    "GA": ("Georgia", "13", 10_519_000, 0.80, 0.60, [[
        (-85.6, 35.0), (-83.1, 35.0), (-82.2, 33.6), (-81.1, 32.1),
        (-81.5, 30.7), (-84.9, 30.7), (-85.0, 31.0), (-85.18, 32.87)]]),
    "FL": ("Florida", "12", 21_299_000, 0.95, 0.78, [[
        (-87.6, 31.0), (-85.0, 31.0), (-84.9, 30.7), (-82.2, 30.57),
        (-81.9, 30.8), (-81.5, 30.7), (-81.2, 29.5), (-80.5, 28.0),
        (-80.0, 26.8), (-80.05, 25.2), (-80.5, 25.2), (-81.1, 25.1),
        (-81.7, 25.9), (-82.7, 27.5), (-82.7, 29.0), (-83.7, 29.9),
        (-84.4, 30.0), (-85.3, 29.7), (-86.5, 30.4), (-87.5, 30.3)]]),
    "SC": ("South Carolina", "45", 5_084_000, 0.78, 0.55, [[
        (-83.1, 35.0), (-81.0, 35.15), (-79.7, 34.8), (-78.5, 33.9),
        (-80.8, 32.5), (-81.1, 32.1), (-82.2, 33.6)]]),
    "NC": ("North Carolina", "37", 10_384_000, 0.75, 0.55, [[
        (-84.3, 35.2), (-83.1, 35.0), (-81.0, 35.15), (-79.7, 34.8),
        (-78.5, 33.9), (-77.0, 34.6), (-75.5, 35.2), (-75.8, 36.55),
        (-81.65, 36.6), (-82.0, 35.8)]]),
    "VA": ("Virginia", "51", 8_518_000, 0.40, 0.30, [[
        (-83.67, 36.6), (-81.65, 36.6), (-75.8, 36.55), (-76.0, 37.3),
        (-76.4, 38.0), (-77.2, 38.6), (-77.7, 39.3), (-79.0, 38.4),
        (-80.0, 37.6), (-81.7, 37.2)]]),
    "WV": ("West Virginia", "54", 1_806_000, 0.34, 0.20, [[
        (-82.6, 38.4), (-82.0, 38.8), (-81.0, 40.0), (-80.52, 40.64),
        (-80.52, 39.72), (-79.48, 39.72), (-79.48, 39.2), (-78.3, 39.6),
        (-77.7, 39.3), (-79.0, 38.4), (-80.0, 37.6), (-81.7, 37.2)]]),
    "MD": ("Maryland", "24", 6_043_000, 0.18, 0.20, [[
        (-79.48, 39.72), (-75.79, 39.72), (-75.1, 38.45), (-76.0, 37.95),
        (-76.4, 38.0), (-77.2, 38.6), (-77.5, 39.0), (-78.3, 39.6),
        (-79.48, 39.2)]]),
    "DE": ("Delaware", "10", 967_000, 0.18, 0.25, [[
        (-75.79, 39.72), (-75.4, 39.8), (-75.05, 38.8), (-75.05, 38.45),
        (-75.1, 38.45)]]),
    "DC": ("District of Columbia", "11", 702_000, 0.02, 0.00, [[
        (-77.12, 38.79), (-76.91, 38.79), (-76.91, 38.995),
        (-77.12, 38.995)]]),
    "PA": ("Pennsylvania", "42", 12_807_000, 0.20, 0.20, [[
        (-80.52, 42.33), (-79.76, 42.27), (-79.76, 42.0), (-75.35, 42.0),
        (-74.7, 41.36), (-75.0, 41.3), (-75.1, 40.8), (-74.7, 40.2),
        (-75.1, 39.88), (-75.79, 39.72), (-80.52, 39.72), (-80.52, 40.64)]]),
    "NJ": ("New Jersey", "34", 8_909_000, 0.38, 0.45, [[
        (-75.1, 39.88), (-74.7, 40.2), (-75.1, 40.8), (-75.0, 41.3),
        (-74.7, 41.36), (-74.05, 40.92), (-74.26, 40.47), (-74.2, 39.5),
        (-74.9, 38.93), (-75.5, 39.45)]]),
    "NY": ("New York", "36", 19_542_000, 0.18, 0.20, [[
        (-79.76, 42.27), (-79.06, 42.85), (-79.06, 43.25), (-76.8, 43.6),
        (-74.7, 45.0), (-73.35, 45.01), (-73.48, 42.05), (-73.65, 41.0),
        (-71.9, 41.05), (-72.0, 40.8), (-73.7, 40.58), (-74.26, 40.47),
        (-74.05, 40.92), (-74.7, 41.36), (-75.35, 42.0),
        (-79.76, 42.0)]]),
    "CT": ("Connecticut", "09", 3_573_000, 0.14, 0.20, [[
        (-73.48, 42.05), (-71.8, 42.01), (-71.85, 41.3), (-72.9, 41.25),
        (-73.65, 41.0)]]),
    "RI": ("Rhode Island", "44", 1_057_000, 0.12, 0.20, [[
        (-71.8, 42.01), (-71.38, 42.02), (-71.12, 41.5), (-71.85, 41.3)]]),
    "MA": ("Massachusetts", "25", 6_902_000, 0.15, 0.25, [[
        (-73.48, 42.05), (-73.25, 42.75), (-71.3, 42.7), (-70.8, 42.87),
        (-70.6, 42.65), (-70.0, 42.0), (-70.0, 41.65), (-70.7, 41.6),
        (-71.12, 41.5), (-71.38, 42.02), (-71.8, 42.01)]]),
    "VT": ("Vermont", "50", 626_000, 0.18, 0.15, [[
        (-73.35, 45.01), (-71.5, 45.01), (-72.45, 42.73), (-73.25, 42.75),
        (-73.48, 42.05)]]),
    "NH": ("New Hampshire", "33", 1_356_000, 0.22, 0.20, [[
        (-71.5, 45.01), (-71.08, 45.3), (-70.8, 43.2), (-70.8, 42.87),
        (-71.3, 42.7), (-72.45, 42.73)]]),
    "ME": ("Maine", "23", 1_338_000, 0.30, 0.25, [[
        (-71.08, 45.3), (-70.0, 46.7), (-69.2, 47.46), (-68.3, 47.36),
        (-67.8, 47.07), (-67.8, 45.7), (-66.95, 44.8), (-68.0, 44.4),
        (-70.0, 43.8), (-70.8, 43.2)]]),
    "OH": ("Ohio", "39", 11_689_000, 0.10, 0.10, [[
        (-84.82, 41.7), (-83.45, 41.73), (-82.5, 41.4), (-80.52, 41.98),
        (-80.52, 40.64), (-81.0, 40.0), (-81.5, 39.4), (-82.8, 38.7),
        (-84.8, 39.1)]]),
    "MI": ("Michigan", "26", 9_996_000, 0.28, 0.20, [
        # Lower peninsula
        [(-84.82, 41.7), (-86.1, 41.76), (-86.6, 42.4), (-86.2, 43.0),
         (-86.5, 44.0), (-85.6, 45.2), (-84.9, 45.75), (-84.4, 45.65),
         (-83.4, 45.3), (-83.3, 44.3), (-83.9, 43.6), (-82.9, 44.0),
         (-82.4, 43.0), (-82.45, 42.9), (-83.1, 42.3), (-83.45, 41.73)],
        # Upper peninsula
        [(-90.42, 46.57), (-90.12, 46.34), (-89.0, 46.0), (-88.1, 45.45),
         (-87.6, 45.1), (-87.1, 45.7), (-86.5, 45.9), (-85.5, 46.0),
         (-84.1, 45.98), (-84.4, 46.5), (-85.0, 46.75), (-86.7, 46.45),
         (-87.6, 46.8), (-88.5, 47.2), (-89.9, 46.8)]]),
    "IN": ("Indiana", "18", 6_692_000, 0.09, 0.10, [[
        (-87.53, 41.76), (-84.82, 41.7), (-84.8, 39.1), (-85.0, 38.7),
        (-85.7, 38.35), (-86.0, 38.0), (-87.0, 37.9), (-88.03, 37.8), (-87.9, 38.3),
        (-87.53, 39.1)]]),
    "IL": ("Illinois", "17", 12_741_000, 0.07, 0.10, [[
        (-90.64, 42.51), (-87.52, 42.49), (-87.53, 41.76), (-87.53, 39.1),
        (-87.9, 38.3), (-88.03, 37.8), (-88.5, 37.1), (-89.15, 36.97),
        (-89.5, 37.9), (-90.2, 38.9), (-91.4, 40.38), (-91.0, 41.0),
        (-90.14, 41.8)]]),
    "WI": ("Wisconsin", "55", 5_814_000, 0.28, 0.20, [[
        (-90.64, 42.51), (-87.8, 42.5), (-87.0, 43.4), (-87.0, 44.5),
        (-87.3, 44.8), (-88.0, 44.6), (-87.6, 45.1), (-88.1, 45.45),
        (-89.0, 46.0), (-90.12, 46.34), (-90.42, 46.57), (-91.5, 46.75),
        (-92.1, 46.8), (-92.3, 46.6), (-92.8, 45.6), (-92.75, 44.7),
        (-91.3, 43.5), (-91.2, 43.37)]]),
    "KY": ("Kentucky", "21", 4_468_000, 0.33, 0.20, [[
        (-89.15, 36.97), (-88.5, 37.1), (-88.03, 37.8), (-87.0, 37.9),
        (-86.0, 38.0), (-85.7, 38.35), (-85.0, 38.7), (-84.8, 39.1), (-82.8, 38.7),
        (-82.6, 38.4), (-81.97, 37.54), (-83.67, 36.6), (-89.42, 36.5)]]),
    "TN": ("Tennessee", "47", 6_770_000, 0.42, 0.30, [[
        (-89.42, 36.5), (-81.65, 36.6), (-82.0, 35.8), (-84.3, 35.2),
        (-84.3, 35.0), (-90.3, 35.0), (-89.7, 36.0)]]),
}


@lru_cache(maxsize=1)
def conus_states() -> dict[str, State]:
    """Build the state table (cached); keys are postal abbreviations."""
    out: dict[str, State] = {}
    for abbr, (name, fips, pop, propensity, intermix,
               rings) in _STATE_TABLE.items():
        geometry = MultiPolygon(Polygon(ring) for ring in rings)
        out[abbr] = State(abbr=abbr, name=name, fips=fips, population=pop,
                          whp_propensity=propensity, wui_intermix=intermix,
                          geometry=geometry)
    return out


def conus_bbox() -> BBox:
    """Bounding box of the conterminous US (fixed study frame)."""
    return BBox(-124.8, 24.5, -66.9, 49.4)


class StateAssigner:
    """Assigns lon/lat points to states.

    The vector paths return integer codes into :attr:`abbrs`, the state
    abbreviations in table order.  :meth:`containing` tests the states'
    polygons in that order, so the first state whose polygons hold a
    point wins (Maryland's ring covers DC and comes first); a point no
    polygon holds gets -1.  :meth:`assign_many` sends those points to
    the state with the nearest centroid (the mean of its polygon
    centroids), so it is total over CONUS.

    The scalar :meth:`assign` is a separate path: it tests STR-tree
    candidates in tree order, and a point no candidate holds goes to
    the candidate polygon with the nearest centroid, then to the
    nearest state centroid.  Where polygons overlap, or a point lies in
    a sliver between simplified borders, the two paths can disagree.
    """

    def __init__(self):
        self.states = conus_states()
        #: State abbreviations in table order; codes index this tuple.
        self.abbrs = tuple(self.states)
        items = []
        centroids = []
        for st in self.states.values():
            lon_sum = lat_sum = n = 0.0
            for poly in st.geometry:
                c = poly.centroid()
                lon_sum += c.lon
                lat_sum += c.lat
                n += 1
                items.append((poly.bbox, (st.abbr, poly)))
            centroids.append((lon_sum / n, lat_sum / n))
        self._tree = STRTree(items)
        self._cent_xy = np.array(centroids)

    def assign(self, lon: float, lat: float) -> str:
        """State abbreviation for a single point."""
        candidates = self._tree.query_point(lon, lat)
        for abbr, poly in candidates:
            if poly.contains(lon, lat):
                return abbr
        if candidates:
            best = min(candidates,
                       key=lambda it: (it[1].centroid().lon - lon) ** 2
                       + (it[1].centroid().lat - lat) ** 2)
            return best[0]
        d2 = ((self._cent_xy[:, 0] - lon) ** 2
              + (self._cent_xy[:, 1] - lat) ** 2)
        return self.abbrs[int(np.argmin(d2))]

    def containing(self, lons, lats) -> np.ndarray:
        """Code of the first state, in table order, whose polygons hold
        each point; -1 where no polygon does (:func:`first_containing`
        over the states' geometries)."""
        return first_containing(
            [st.geometry for st in self.states.values()], lons, lats)

    def assign_many(self, lons, lats) -> np.ndarray:
        """State code per point: :meth:`containing`, then the nearest
        state centroid for the sliver points no polygon holds."""
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        codes = self.containing(lons, lats)
        leftover = np.flatnonzero(codes < 0)
        if len(leftover):
            d2 = ((lons[leftover, None] - self._cent_xy[None, :, 0]) ** 2
                  + (lats[leftover, None] - self._cent_xy[None, :, 1]) ** 2)
            codes[leftover] = np.argmin(d2, axis=1)
        return codes
