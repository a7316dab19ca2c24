"""Vector geometry types.

A deliberately small, immutable geometry model covering what the paper's
analyses need: points, bounding boxes, polylines, and (multi)polygons with
holes.  Coordinates are lon/lat degrees throughout the package; areas are
computed on the CONUS Albers equal-area plane so they are true areas.

The types interoperate with GeoJSON via :mod:`repro.geo.geojson`.
:func:`first_containing` puts points in the first of an ordered list of
regions that holds them (states, counties, ecoregions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .predicates import (
    _ring_edges,
    _ring_parity,
    _validated_ring,
    is_ccw,
    point_in_ring,
    ring_area_signed,
)
from .projection import CONUS_ALBERS, sqmeters_to_acres

__all__ = [
    "Point",
    "BBox",
    "LineString",
    "Polygon",
    "MultiPolygon",
    "first_containing",
]


@dataclass(frozen=True)
class Point:
    """A lon/lat point."""

    lon: float
    lat: float


@dataclass(frozen=True)
class BBox:
    """An axis-aligned lon/lat bounding box."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self):
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError(f"inverted bbox: {self}")

    @classmethod
    def of_coords(cls, lons, lats) -> "BBox":
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        if lons.size == 0:
            raise ValueError("cannot take bbox of empty coordinates")
        return cls(float(lons.min()), float(lats.min()),
                   float(lons.max()), float(lats.max()))

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    @property
    def center(self) -> Point:
        return Point((self.min_lon + self.max_lon) / 2.0,
                     (self.min_lat + self.max_lat) / 2.0)

    def contains(self, lon: float, lat: float) -> bool:
        return (self.min_lon <= lon <= self.max_lon
                and self.min_lat <= lat <= self.max_lat)

    def contains_many(self, lons, lats) -> np.ndarray:
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        return ((lons >= self.min_lon) & (lons <= self.max_lon)
                & (lats >= self.min_lat) & (lats <= self.max_lat))

    def intersects(self, other: "BBox") -> bool:
        return not (other.min_lon > self.max_lon
                    or other.max_lon < self.min_lon
                    or other.min_lat > self.max_lat
                    or other.max_lat < self.min_lat)

    def expand(self, dlon: float, dlat: float | None = None) -> "BBox":
        """Grow the box by ``dlon`` degrees (and ``dlat``, default same)."""
        if dlat is None:
            dlat = dlon
        return BBox(self.min_lon - dlon, self.min_lat - dlat,
                    self.max_lon + dlon, self.max_lat + dlat)

    def union(self, other: "BBox") -> "BBox":
        return BBox(min(self.min_lon, other.min_lon),
                    min(self.min_lat, other.min_lat),
                    max(self.max_lon, other.max_lon),
                    max(self.max_lat, other.max_lat))


class LineString:
    """An open polyline in lon/lat degrees."""

    def __init__(self, coords: Sequence[Sequence[float]]):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
            raise ValueError("LineString needs an (N>=2, 2) coordinate array")
        self.coords = arr
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"LineString({len(self.coords)} vertices)"

    @property
    def bbox(self) -> BBox:
        return BBox.of_coords(self.coords[:, 0], self.coords[:, 1])


class Polygon:
    """A polygon with an exterior ring and optional interior rings (holes).

    The exterior ring is normalized to counter-clockwise winding and holes
    to clockwise, matching GeoJSON conventions.  The first vectorized
    query builds the edge table of the exterior and holes that every
    later one reuses; pickles leave it out.
    """

    def __init__(self, exterior: Sequence[Sequence[float]],
                 holes: Iterable[Sequence[Sequence[float]]] = ()):
        self.exterior = self._normalize(exterior, ccw=True)
        self.holes = tuple(self._normalize(h, ccw=False) for h in holes)
        self._bbox = BBox.of_coords(self.exterior[:, 0], self.exterior[:, 1])
        self._edges: tuple | None = None

    @classmethod
    def from_ccw_ring(cls, exterior, bbox: BBox | None = None) \
            -> "Polygon":
        """Trusted fast constructor: an open CCW exterior, no holes.

        Skips ring validation and winding normalization, so the caller
        must guarantee an (N>=3, 2) float ring that is counter-clockwise
        and has no duplicated closing vertex.  Produces a polygon
        bit-identical to ``Polygon(exterior)`` for such input; generators
        that emit thousands of perimeters (see
        :func:`repro.data.wildfires.star_polygons`) use it to stay off
        the per-ring shoelace/closure checks.  A caller that already
        holds the ring's bounding box (a stored season reduces every
        ring's at once) passes it as ``bbox``.
        """
        poly = cls.__new__(cls)
        arr = np.ascontiguousarray(exterior, dtype=float)
        arr.setflags(write=False)
        poly.exterior = arr
        poly.holes = ()
        poly._bbox = bbox or BBox.of_coords(arr[:, 0], arr[:, 1])
        poly._edges = None
        return poly

    @staticmethod
    def _normalize(ring, ccw: bool) -> np.ndarray:
        arr = _validated_ring(ring)
        if is_ccw(arr) != ccw:
            arr = arr[::-1]
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        return arr

    def __repr__(self) -> str:
        return (f"Polygon({len(self.exterior)} vertices, "
                f"{len(self.holes)} holes)")

    def __getstate__(self):
        # The edge table is cheap to rebuild and only bloats pickles
        # shipped to worker processes; drop it.
        return {"exterior": self.exterior, "holes": self.holes,
                "_bbox": self._bbox}

    def __setstate__(self, state):
        self.exterior = state["exterior"]
        self.holes = state["holes"]
        self._bbox = state["_bbox"]
        self._edges = None

    @property
    def bbox(self) -> BBox:
        return self._bbox

    def _edge_table(self) -> tuple:
        """The ``_ring_edges`` table of the exterior (ring 0) and the
        holes, built on first use."""
        if self._edges is None:
            rings = (self.exterior, *self.holes)
            offsets = np.cumsum([0, *map(len, rings)])
            self._edges = _ring_edges(np.concatenate(rings), offsets)
        return self._edges

    def contains(self, lon: float, lat: float) -> bool:
        """True if the point is inside the polygon (and not in a hole)."""
        if not self._bbox.contains(lon, lat):
            return False
        if not point_in_ring(lon, lat, self.exterior):
            return False
        return not any(point_in_ring(lon, lat, h) for h in self.holes)

    def contains_many(self, lons, lats) -> np.ndarray:
        """Vectorized containment test for arrays of points of one
        shape; returns a boolean array of that shape.

        The points inside the bbox take the crossing-number kernel over
        the exterior and over each hole of the cached edge table.
        """
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        result = self._bbox.contains_many(lons, lats)
        if result.any():
            px, py = lons[result], lats[result]
            table = self._edge_table()
            inside = _ring_parity(px, py, 0, *table)
            for hole in range(1, 1 + len(self.holes)):
                inside &= ~_ring_parity(px, py, hole, *table)
            result[result] = inside
        return result

    def area_sqm(self) -> float:
        """True (equal-area-projected) polygon area in square meters."""
        total = self._ring_area_sqm(self.exterior)
        for hole in self.holes:
            total -= self._ring_area_sqm(hole)
        return total

    @staticmethod
    def _ring_area_sqm(ring: np.ndarray) -> float:
        x, y = CONUS_ALBERS.forward(ring[:, 0], ring[:, 1])
        return abs(ring_area_signed(np.column_stack([x, y])))

    def area_acres(self) -> float:
        """Polygon area in acres (the unit the paper reports)."""
        return sqmeters_to_acres(self.area_sqm())

    def centroid(self) -> Point:
        """Area-weighted centroid of the exterior ring (lon/lat degrees)."""
        _, n_edges, xs, ys, x_next, y_next = self._edge_table()
        n = n_edges[0]
        xs, ys, x_next, y_next = xs[:n], ys[:n], x_next[:n], y_next[:n]
        cross = xs * y_next - x_next * ys
        area2 = cross.sum()
        if abs(area2) < 1e-15:
            return Point(float(xs.mean()), float(ys.mean()))
        cx = float(((xs + x_next) * cross).sum() / (3.0 * area2))
        cy = float(((ys + y_next) * cross).sum() / (3.0 * area2))
        return Point(cx, cy)


class MultiPolygon:
    """An ordered collection of polygons treated as one geometry."""

    def __init__(self, polygons: Iterable[Polygon]):
        self.polygons = tuple(polygons)
        if not self.polygons:
            raise ValueError("MultiPolygon needs at least one polygon")
        bbox = self.polygons[0].bbox
        for p in self.polygons[1:]:
            bbox = bbox.union(p.bbox)
        self._bbox = bbox

    def __len__(self) -> int:
        return len(self.polygons)

    def __iter__(self):
        return iter(self.polygons)

    def __repr__(self) -> str:
        return f"MultiPolygon({len(self.polygons)} polygons)"

    @property
    def bbox(self) -> BBox:
        return self._bbox

    def contains(self, lon: float, lat: float) -> bool:
        return any(p.contains(lon, lat) for p in self.polygons)

    def contains_many(self, lons, lats) -> np.ndarray:
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        result = np.zeros(lons.shape, dtype=bool)
        for p in self.polygons:
            result |= p.contains_many(lons, lats)
        return result

    def area_sqm(self) -> float:
        return sum(p.area_sqm() for p in self.polygons)

    def area_acres(self) -> float:
        return sqmeters_to_acres(self.area_sqm())


def first_containing(shapes: Sequence, lons, lats) -> np.ndarray:
    """Index of the first shape, in order, that holds each point; -1
    where none does.

    ``shapes`` are :class:`BBox` objects or geometries with a ``bbox``
    and a vectorized ``contains_many`` (:class:`Polygon`,
    :class:`MultiPolygon`, ...).  The points are sorted by longitude
    once, so each shape's box test reads only the still-unassigned
    points in its longitude band, and its exact test runs only on the
    points inside the box; a :class:`BBox` is its own exact test.
    Point for point, the codes equal testing every shape's
    ``contains_many`` over all points and keeping the first hit.
    Points with a NaN coordinate fall in no box.
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    order = np.argsort(lons, axis=None)
    by_lon = lons.reshape(-1)[order]
    lat_by_lon = lats.reshape(-1)[order]
    found = np.full(order.size, -1, dtype=np.int64)
    for code, shape in enumerate(shapes):
        box = shape if isinstance(shape, BBox) else shape.bbox
        lo = np.searchsorted(by_lon, box.min_lon, side="left")
        hi = np.searchsorted(by_lon, box.max_lon, side="right")
        band = lat_by_lon[lo:hi]
        idx = lo + np.flatnonzero((found[lo:hi] < 0)
                                  & (band >= box.min_lat)
                                  & (band <= box.max_lat))
        if idx.size and box is not shape:     # a BBox is exact already
            idx = idx[shape.contains_many(by_lon[idx], lat_by_lon[idx])]
        found[idx] = code
    codes = np.empty(lons.shape, dtype=np.int64)
    codes.reshape(-1)[order] = found
    return codes
