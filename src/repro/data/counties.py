"""Synthetic county layer.

The paper's impact analysis (§3.6) needs county polygons with populations
so transceivers can be bucketed into the three density categories:

* ``POP_M``  — moderately dense, 200k–500k people,
* ``POP_H``  — dense, 500k–1.5M people,
* ``POP_VH`` — very dense, >1.5M people.

We tile each state with ~0.35° square "counties" whose populations are
integrated from the population surface.  Like real counties — which are
small where people are dense — tiles holding more than 1.5M people are
recursively subdivided into quadrants (down to ~0.175°), so the
"very dense" category is not inflated by coarse aggregation.

The tile containing a metro anchor is then renamed to that metro's real
county and given the county's real 2018 population, so the paper's "23
most populous counties" (Los Angeles, Cook, Harris, Maricopa, San Diego,
...) exist by name with the right populations and category memberships.
Nearby anchors can fall in one tile (e.g. San Francisco/Oakland); the
largest county wins and the others merge into it — a documented
simplification of Bay-Area geography.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..geo.geometry import BBox, first_containing
from .cities import conus_cities
from .population import PopulationSurface
from .states import StateAssigner

__all__ = ["PopCategory", "County", "build_counties", "CountyLayer",
           "POP_CATEGORY_NAMES", "categorize_population"]

#: County population above which a tile is considered "very dense" and
#: above which unanchored tiles are subdivided.
_VERY_DENSE_CUT = 1_500_000


class PopCategory(IntEnum):
    """County population-density categories from §3.6."""

    RURAL = 0        # < 200k (not part of the paper's three categories)
    POP_M = 1        # 200k - 500k
    POP_H = 2        # 500k - 1.5M
    POP_VH = 3       # > 1.5M


POP_CATEGORY_NAMES = {
    PopCategory.RURAL: "Rural (<200k)",
    PopCategory.POP_M: "Mod Dense (200k-500k)",
    PopCategory.POP_H: "Dense (500k-1.5M)",
    PopCategory.POP_VH: "Very Dense (>1.5M)",
}


def categorize_population(population: float) -> PopCategory:
    """Map a county population to its density category."""
    if population > _VERY_DENSE_CUT:
        return PopCategory.POP_VH
    if population > 500_000:
        return PopCategory.POP_H
    if population > 200_000:
        return PopCategory.POP_M
    return PopCategory.RURAL


@dataclass
class County:
    """A county tile (possibly a subdivided quadrant)."""

    name: str
    state: str
    bbox: BBox
    population: int
    anchor_city: str | None = None

    @property
    def category(self) -> PopCategory:
        return categorize_population(self.population)


class CountyLayer:
    """All counties plus table-driven point-to-county assignment.

    Named (metro) counties carry realistic extents and take priority:
    the first named box that holds a point wins.  Every other point
    reads the tile table, one row per grid tile, listing the tile
    counties whose centres fall in that tile:

    * one entry: that county, with no box test;
    * several entries (a subdivided tile): the first whose closed box
      holds the point;
    * no entry: -1.
    """

    def __init__(self, counties: list[County], tile_deg: float, bbox: BBox,
                 n_named: int = 0):
        self.counties = counties
        self.tile_deg = tile_deg
        self.bbox = bbox
        self.n_named = n_named
        self._ncols = int(np.ceil(bbox.width / tile_deg))
        self._nrows = int(np.ceil(bbox.height / tile_deg))
        self._named = [c.bbox for c in counties[:n_named]]
        self._boxes = np.array([[c.bbox.min_lon, c.bbox.min_lat,
                                 c.bbox.max_lon, c.bbox.max_lat]
                                for c in counties]).reshape(-1, 4)
        # Sorted tile keys, and per key its counties in index order,
        # padded with -1 to the most counties any tile holds.
        centers = [c.bbox.center for c in counties[n_named:]]
        keys = self._tile_key([p.lon for p in centers],
                              [p.lat for p in centers])
        order = np.argsort(keys, kind="stable")
        self._keys, first, self._counts = np.unique(
            keys[order], return_index=True, return_counts=True)
        rows = np.repeat(np.arange(len(self._keys)), self._counts)
        self._slots = np.full((len(self._keys), self._counts.max(initial=0)),
                              -1, dtype=np.int64)
        self._slots[rows, np.arange(len(order)) - first[rows]] = \
            order + n_named

    def _tile_key(self, lon, lat):
        """Tile key ``row * ncols + col`` per point; -1 for a point off
        the tile grid or with a non-finite coordinate (no tile has it,
        where a column past either edge would alias into the next or
        previous row)."""
        col = np.floor((np.asarray(lon, dtype=float) - self.bbox.min_lon)
                       / self.tile_deg)
        row = np.floor((np.asarray(lat, dtype=float) - self.bbox.min_lat)
                       / self.tile_deg)
        on_grid = ((col >= 0) & (col < self._ncols)
                   & (row >= 0) & (row < self._nrows))
        keys = np.full(on_grid.shape, -1, dtype=np.int64)
        keys[on_grid] = (row[on_grid].astype(np.int64) * self._ncols
                         + col[on_grid].astype(np.int64))
        return keys

    def assign(self, lon: float, lat: float) -> int:
        """County index for one point; -1 if no county covers it."""
        return int(self.assign_many([lon], [lat])[0])

    def assign_many(self, lons, lats) -> np.ndarray:
        """County index per point; -1 where no county covers the point."""
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        out = first_containing(self._named, lons, lats)
        rest = np.flatnonzero(out < 0)
        out[rest] = self._from_tiles(lons[rest], lats[rest])
        return out

    def _from_tiles(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Tile-table county per point (the rules in the class doc)."""
        keys = self._tile_key(lons, lats)
        row = np.searchsorted(self._keys, keys)
        found = row < len(self._keys)
        found[found] = self._keys[row[found]] == keys[found]
        out = np.full(len(keys), -1, dtype=np.int64)
        idx = np.flatnonzero(found)
        out[idx] = self._slots[row[idx], 0]
        idx = idx[self._counts[row[idx]] > 1]
        x, y = lons[idx], lats[idx]
        pick = np.full(len(idx), -1, dtype=np.int64)
        for slot in self._slots[row[idx]].T:
            box = self._boxes[slot]
            holds = ((pick < 0) & (slot >= 0)
                     & (box[:, 0] <= x) & (x <= box[:, 2])
                     & (box[:, 1] <= y) & (y <= box[:, 3]))
            pick[holds] = slot[holds]
        out[idx] = pick
        return out

    def categories(self) -> np.ndarray:
        """(n_counties,) array of PopCategory codes."""
        return np.array([int(c.category) for c in self.counties],
                        dtype=np.int8)

    def populations(self) -> np.ndarray:
        return np.array([c.population for c in self.counties],
                        dtype=np.int64)

    def by_name(self, name: str) -> County:
        for c in self.counties:
            if c.name == name:
                return c
        raise KeyError(f"unknown county: {name!r}")

    def very_dense(self) -> list[County]:
        """Counties in the >1.5M category (the paper's 23)."""
        return [c for c in self.counties
                if c.category == PopCategory.POP_VH]


def _subdivide(tile: BBox, pop: PopulationSurface, min_deg: float) \
        -> list[tuple[BBox, int]]:
    """Recursively split a tile into quadrants while it is very dense."""
    population = int(round(pop.population_in_bbox(tile)))
    if population <= _VERY_DENSE_CUT or tile.width / 2.0 < min_deg:
        return [(tile, population)]
    mid_lon = (tile.min_lon + tile.max_lon) / 2.0
    mid_lat = (tile.min_lat + tile.max_lat) / 2.0
    quads = [
        BBox(tile.min_lon, tile.min_lat, mid_lon, mid_lat),
        BBox(mid_lon, tile.min_lat, tile.max_lon, mid_lat),
        BBox(tile.min_lon, mid_lat, mid_lon, tile.max_lat),
        BBox(mid_lon, mid_lat, tile.max_lon, tile.max_lat),
    ]
    out: list[tuple[BBox, int]] = []
    for quad in quads:
        out.extend(_subdivide(quad, pop, min_deg))
    return out


def _named_counties() -> list[County]:
    """Metro counties with realistic extents, most populous first.

    Descending population order means that where two real county boxes
    overlap slightly (hand-approximated extents), the larger county wins
    point assignment.
    """
    named: list[County] = []
    seen: set[str] = set()
    for city in sorted(conus_cities(), key=lambda c: -c.county_pop):
        if city.county_name in seen:
            continue
        box = city.county_bbox
        if box is None:
            continue
        seen.add(city.county_name)
        named.append(County(
            name=city.county_name,
            state=city.state,
            bbox=BBox(*box),
            population=city.county_pop,
            anchor_city=city.name,
        ))
    return named


def build_counties(pop: PopulationSurface, tile_deg: float = 0.35,
                   min_subdivision_deg: float = 0.17) -> CountyLayer:
    """Build the county layer: named metro counties + grid tiles.

    Named counties (realistic extents, real populations) come first and
    take assignment priority.  The rest of CONUS is covered by tiles
    whose populations integrate the surface; unanchored very-dense tiles
    are quadrant-subdivided like real counties are smaller where people
    are dense.  Tile populations are *not* reduced by named-county
    overlap (the named population is authoritative; the slight double
    count at box edges is a documented approximation).
    """
    named = _named_counties()
    bbox = pop.grid.bbox

    assigner = StateAssigner()
    n_cols = int(np.ceil(bbox.width / tile_deg))
    n_rows = int(np.ceil(bbox.height / tile_deg))

    tiles: list[BBox] = []
    for row in range(n_rows):
        for col in range(n_cols):
            min_lon = bbox.min_lon + col * tile_deg
            min_lat = bbox.min_lat + row * tile_deg
            tiles.append(BBox(min_lon, min_lat, min_lon + tile_deg,
                              min_lat + tile_deg))

    centers_lon = np.array([t.center.lon for t in tiles])
    centers_lat = np.array([t.center.lat for t in tiles])
    codes = assigner.assign_many(centers_lon, centers_lat)
    # assign_many is total (nearest-centroid fallback), so re-check which
    # tile centers are actually on land via the population surface.
    on_land = pop.density_at(centers_lon, centers_lat) > 0.0
    named_boxes = [county.bbox for county in named]
    in_named = first_containing(named_boxes, centers_lon, centers_lat) >= 0

    # Every quad of every land tile outside the named boxes, then one
    # named-box test over all their centres.
    quads = [(quad, population, code)
             for tile, code, land, covered in zip(tiles, codes, on_land,
                                                  in_named)
             if land and not covered
             for quad, population in _subdivide(tile, pop,
                                                min_subdivision_deg)]
    quad_centers = [quad.center for quad, _, _ in quads]
    free = first_containing(named_boxes,
                            [p.lon for p in quad_centers],
                            [p.lat for p in quad_centers]) < 0

    counties: list[County] = list(named)
    for (quad, population, code), keep in zip(quads, free):
        if keep:
            abbr = assigner.abbrs[code]
            name = f"{abbr}-{len(counties):04d}"
            counties.append(County(name=name, state=abbr, bbox=quad,
                                   population=population))

    return CountyLayer(counties, tile_deg, bbox, n_named=len(named))
