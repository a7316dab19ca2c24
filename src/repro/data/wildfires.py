"""Synthetic wildfire perimeters (GeoMAC substitute).

GeoMAC provides dated perimeter polygons for the fires large enough to be
tracked.  The generator reproduces, per year:

* the national acreage exactly (Table 1's "acres burned" column is an
  input from :mod:`repro.data.historical_stats`),
* a heavy-tailed size distribution (truncated Pareto — most perimeter
  fires are small; a few megafires carry most acreage, §2.1),
* ignition locations drawn proportionally to WHP hazard (fires start
  where fuel is), and
* irregular star-shaped perimeters with noisy radii.

For 2019, four scripted fires reproduce the case-study geography the
validation of §3.4 depends on: a Kincade-like fire north of the Bay Area,
a small Getty-like fire inside west Los Angeles, and Saddle Ridge/Tick-
like fires straddling the urban fringe and highway corridor north of Los
Angeles — the two fires that account for most of the WHP misses in the
paper (288 of 354).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geo.geometry import BBox, Polygon
from ..geo.projection import acres_to_sqmeters, meters_per_degree
from .cities import city_by_name
from .historical_stats import year_stats
from .whp import WhpModel

__all__ = ["FirePerimeter", "FireSeason", "generate_fire_season",
           "scripted_2019_fires", "scripted_2019_growth",
           "interpolated_perimeter", "star_polygon", "star_polygons",
           "SCRIPTED_LA_FIRES_2019", "STAR_VERTICES"]

#: Names of the two scripted fires that reproduce the paper's §3.4
#: Los Angeles anomaly.
SCRIPTED_LA_FIRES_2019 = ("Saddle Ridge", "Tick")

#: Vertices of a wildfire perimeter.
STAR_VERTICES = 24

#: Per-vertex-count cache of the deterministic star-polygon geometry
#: (theta grid, its cos/sin, and sin of the angular step).  Thousands of
#: perimeters share the same vertex count, so the trig is hoisted out of
#: the per-fire loop.
_STAR_TRIG: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}


def _star_trig(n_vertices: int) -> tuple[np.ndarray, np.ndarray, float]:
    cached = _STAR_TRIG.get(n_vertices)
    if cached is None:
        theta = np.linspace(0.0, 2.0 * math.pi, n_vertices,
                            endpoint=False)
        cached = (np.cos(theta), np.sin(theta),
                  math.sin(2.0 * math.pi / n_vertices))
        _STAR_TRIG[n_vertices] = cached
    return cached


@dataclass(frozen=True)
class FirePerimeter:
    """One wildfire perimeter with GeoMAC-style attributes."""

    name: str
    year: int
    start_doy: int
    end_doy: int
    acres: float
    polygon: Polygon
    agency: str = "USFS"
    method: str = "Infrared"

    @property
    def duration_days(self) -> int:
        return max(1, self.end_doy - self.start_doy)


@dataclass
class FireSeason:
    """All perimeter fires of one year."""

    year: int
    fires: list[FirePerimeter]

    def __len__(self) -> int:
        return len(self.fires)

    def total_acres(self) -> float:
        return sum(f.acres for f in self.fires)


def star_polygons(lons, lats, acres, noise: np.ndarray, *,
                  roughness: float = 0.45, elongation=1.0,
                  bearing_deg=0.0) -> list[Polygon]:
    """Irregular star-convex polygons of the given areas, one per fire.

    Fire ``i`` is centred on ``(lons[i], lats[i])``.  Its radii are 1 +
    roughness * (row ``i`` of the ``(n, V)`` ``noise`` block, smoothed
    circularly over 5 vertices and scaled by its largest magnitude)
    around a base radius chosen so the polygon's true
    (equal-area-projected) area equals ``acres[i]``.

    ``elongation`` > 1 stretches a fire along ``bearing_deg`` (clockwise
    from north) and compresses it across, preserving area — the
    footprint of a wind-driven fire (Santa Ana events stretch
    perimeters 2-4x along the wind).  Both take one value per fire or
    one for all.

    Every fire is computed at once in ``(n, V)`` arrays, with the float
    operations of a one-fire outline in the same order, so a ring's
    bytes do not depend on the fires that share its block.  The
    per-fire scalars (metres per degree, the rotation's cosine and
    sine) come from :mod:`math`, one fire at a time.
    """
    noise = np.asarray(noise, dtype=np.float64)
    n, n_vertices = noise.shape
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    acres = np.asarray(acres, dtype=np.float64)
    elongation = np.broadcast_to(np.asarray(elongation, dtype=np.float64),
                                 (n,))
    bearing_deg = np.broadcast_to(
        np.asarray(bearing_deg, dtype=np.float64), (n,))
    if (acres <= 0).any():
        raise ValueError("fire area must be positive")
    if (elongation < 1.0).any():
        raise ValueError("elongation must be >= 1")
    from scipy import ndimage

    # Circular smoothing keeps the outline coherent rather than spiky;
    # scipy filters each row on its own.
    noise = ndimage.uniform_filter1d(noise, size=5, axis=1, mode="wrap")
    noise = noise / np.maximum(np.abs(noise).max(axis=1), 1e-9)[:, None]
    # Same values as np.clip(..., 0.25, None) without the clip wrapper.
    radii_rel = np.maximum(1.0 + roughness * noise, 0.25)

    cos_theta, sin_theta, sin_dtheta = _star_trig(n_vertices)
    # Polygon area for radial function r(θ): A = 1/2 Σ r_i r_{i+1} sin Δθ.
    # Each row of the C-ordered product is summed as a lone ring is.
    radii_next = np.roll(radii_rel, -1, axis=1)
    unit_area = 0.5 * ((radii_rel * radii_next).sum(axis=1) * sin_dtheta)
    base_r = np.sqrt(acres_to_sqmeters(acres) / unit_area)[:, None]

    x = base_r * radii_rel * cos_theta
    y = base_r * radii_rel * sin_theta
    windy = np.flatnonzero(elongation > 1.0)
    if windy.size:
        # Area-preserving anisotropic scaling along the wind bearing
        # (bearing -> math angle).
        stretch = np.sqrt(elongation[windy])[:, None]
        wind = [math.radians(90.0 - b) for b in bearing_deg[windy].tolist()]
        ca = np.array([math.cos(w) for w in wind])[:, None]
        sa = np.array([math.sin(w) for w in wind])[:, None]
        wx, wy = x[windy], y[windy]
        along = (wx * ca + wy * sa) * stretch
        across = (-wx * sa + wy * ca) / stretch
        x[windy] = along * ca - across * sa
        y[windy] = along * sa + across * ca

    mx, my = np.array([meters_per_degree(lat) for lat in lats.tolist()]
                      ).reshape(n, 2).T
    rings = np.empty((n, n_vertices, 2))
    rings[:, :, 0] = lons[:, None] + x / mx[:, None]
    rings[:, :, 1] = lats[:, None] + y / my[:, None]
    rings.setflags(write=False)
    lows = rings.min(axis=1).tolist()
    highs = rings.max(axis=1).tolist()
    # Each ring is CCW by construction (theta increases counter-clockwise,
    # radii are positive) and open, so the trusted constructor applies;
    # min and max are exact, so each box is the one it would take.
    return [Polygon.from_ccw_ring(ring, BBox(*low, *high))
            for ring, low, high in zip(rings, lows, highs)]


def star_polygon(lon: float, lat: float, acres: float,
                 rng: np.random.Generator,
                 n_vertices: int = STAR_VERTICES,
                 roughness: float = 0.45, elongation: float = 1.0,
                 bearing_deg: float = 0.0) -> Polygon:
    """One :func:`star_polygons` fire on ``n_vertices`` standard normals
    drawn from ``rng``."""
    return star_polygons([lon], [lat], [acres],
                         rng.standard_normal((1, n_vertices)),
                         roughness=roughness, elongation=elongation,
                         bearing_deg=bearing_deg)[0]


def _pareto_sizes(n: int, total_acres: float, rng: np.random.Generator,
                  alpha: float = 0.55, min_acres: float = 80.0,
                  max_acres: float = 450_000.0) -> np.ndarray:
    """Truncated-Pareto fire sizes rescaled to sum to ``total_acres``."""
    u = rng.random(n)
    sizes = min_acres * np.power(1.0 - u, -1.0 / alpha)
    sizes = np.clip(sizes, min_acres, max_acres)
    return sizes * (total_acres / sizes.sum())


def generate_fire_season(year: int, whp: WhpModel, seed: int | None = None,
                         n_perimeter_fires: int | None = None,
                         total_acres: float | None = None,
                         elongation_range: tuple[float, float]
                         = (1.0, 1.0)) -> FireSeason:
    """Generate one year's perimeter fires.

    ``total_acres`` defaults to the year's historical record; the number
    of tracked perimeters defaults to a size-dependent few hundred.
    ``elongation_range`` samples a wind-driven stretch factor per fire
    (default isotropic); see :func:`star_polygons`.
    """
    stats = year_stats(year)
    if total_acres is None:
        total_acres = stats.acres_burned * 1e6
    rng = np.random.default_rng(seed if seed is not None
                                else 1_000_000 + year)
    if n_perimeter_fires is None:
        # GeoMAC tracks the escaped fires: a few hundred per season,
        # scaling weakly with national acreage.
        n_perimeter_fires = int(180 + 40.0 * stats.acres_burned)

    sizes = _pareto_sizes(n_perimeter_fires, total_acres, rng)

    cell_ids = whp.ignition_cdf().searchsorted(
        rng.random(n_perimeter_fires), side="right")
    rows, cols = np.unravel_index(cell_ids, whp.grid.shape)
    lons, lats = whp.grid.cell_center(rows, cols)
    half = whp.grid.res / 2.0
    lons = lons + rng.uniform(-half, half, size=n_perimeter_fires)
    lats = lats + rng.uniform(-half, half, size=n_perimeter_fires)

    # Each fire draws its start day, stretch, bearing and outline noise
    # in this order; the pinned perimeters depend on it.
    starts = []
    elongations = np.empty(n_perimeter_fires)
    bearings = np.empty(n_perimeter_fires)
    noise = np.empty((n_perimeter_fires, STAR_VERTICES))
    for i in range(n_perimeter_fires):
        # Scalar min/max equals np.clip on floats, minus ~8us of ufunc
        # dispatch per call — this loop runs tens of thousands of times.
        starts.append(int(min(max(rng.normal(225, 45), 32), 340)))
        elongations[i] = rng.uniform(*elongation_range)
        bearings[i] = rng.uniform(0, 360)
        rng.standard_normal(out=noise[i])
    polygons = star_polygons(lons, lats, sizes, noise,
                             elongation=elongations, bearing_deg=bearings)

    fires = []
    for i, (start, poly) in enumerate(zip(starts, polygons)):
        duration = int(min(max(2 + sizes[i] ** 0.33, 2), 90))
        fires.append(FirePerimeter(
            name=f"FIRE-{year}-{i:04d}",
            year=year,
            start_doy=start,
            end_doy=min(start + duration, 364),
            acres=float(sizes[i]),
            polygon=poly,
        ))
    return FireSeason(year=year, fires=fires)


#: The four scripted 2019 case-study fires as
#: ``(name, agency, anchor_city, dlon, dlat, acres, start_doy, end_doy)``
#: rows.  Row order is the rng-consumption order of
#: :func:`scripted_2019_fires` and must not change — the perimeters are
#: pinned bit-for-bit by golden tests.
_SCRIPTED_2019 = (
    ("Kincade", "CAL FIRE", "San Francisco", -0.35, 0.95,
     77_758.0, 296, 310),
    ("Getty", "LAFD", "Los Angeles", -0.24, 0.05, 745.0, 301, 309),
    ("Saddle Ridge", "LAFD", "Los Angeles", 0.04, 0.13,
     8_799.0, 283, 304),
    ("Tick", "CAL FIRE", "Los Angeles", 0.12, 0.20, 4_615.0, 297, 305),
)

#: A perimeter enters the stream at this fraction of its final linear
#: extent the tick it ignites (a point ignition would be a degenerate
#: polygon).
_IGNITION_FRACTION = 0.2


def _scripted_centers() -> list[tuple[float, float]]:
    """Generation centers of the scripted fires (table order)."""
    return [(city_by_name(anchor).lon + dlon,
             city_by_name(anchor).lat + dlat)
            for _, _, anchor, dlon, dlat, _, _, _ in _SCRIPTED_2019]


def scripted_2019_fires(seed: int = 2019) -> list[FirePerimeter]:
    """The four scripted California fires of the 2019 case study.

    Positions are relative to the synthetic city anchors so they land on
    the same features as the real fires: Kincade in the wildlands north
    of the Bay Area, Getty inside west LA, and Saddle Ridge/Tick on the
    urban fringe and highway corridor north of LA.
    """
    rng = np.random.default_rng(seed)
    lons, lats = zip(*_scripted_centers())
    noise = rng.standard_normal((len(_SCRIPTED_2019), STAR_VERTICES))
    polygons = star_polygons(lons, lats, [row[5] for row in _SCRIPTED_2019],
                             noise)
    return [FirePerimeter(name=name, year=2019, start_doy=start,
                          end_doy=end, acres=acres, polygon=poly,
                          agency=agency)
            for (name, agency, _, _, _, acres, start, end), poly
            in zip(_SCRIPTED_2019, polygons)]


def interpolated_perimeter(fire: FirePerimeter, center_lon: float,
                           center_lat: float,
                           fraction: float) -> FirePerimeter:
    """The fire's front part-way through its growth.

    The exterior ring is scaled about the fire's generation center by
    ``fraction`` of its final *linear* extent (area scales with the
    square).  Star polygons are star-shaped about that center, so the
    interpolated family is monotone: ``fraction1 <= fraction2`` implies
    the smaller perimeter is contained in the larger — the invariant
    the delta-overlay engine's bucket skipping rests on.

    ``fraction == 1.0`` returns the *original object*, not a rescaled
    copy: float scaling does not round-trip bit-exactly, and the stream
    goldens pin the final tick to the static perimeter.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return fire
    ring = fire.polygon.exterior
    lons = center_lon + fraction * (ring[:, 0] - center_lon)
    lats = center_lat + fraction * (ring[:, 1] - center_lat)
    return FirePerimeter(
        name=fire.name, year=fire.year,
        start_doy=fire.start_doy, end_doy=fire.end_doy,
        acres=fire.acres * fraction * fraction,
        polygon=Polygon.from_ccw_ring(np.column_stack([lons, lats])),
        agency=fire.agency, method=fire.method)


def scripted_2019_growth(n_ticks: int = 8, seed: int = 2019) \
        -> list[list[FirePerimeter]]:
    """Deterministic per-tick front snapshots of the scripted fires.

    Tick ``t`` maps linearly onto the scripted fires' shared calendar
    window (day-of-year 283-310); each snapshot holds the fires already
    ignited by that day, grown to the fraction of their span elapsed
    (from :data:`_IGNITION_FRACTION` at ignition to 1.0 at
    containment).  Growth is monotone per fire across ticks, a fire
    that finishes growing is thereafter the *identical* static object,
    and the final tick is bit-identical to
    :func:`scripted_2019_fires` — so folding the stream reproduces the
    batch season exactly.
    """
    if n_ticks < 2:
        raise ValueError("a growth series needs at least 2 ticks")
    fires = scripted_2019_fires(seed)
    centers = _scripted_centers()
    first = min(f.start_doy for f in fires)
    last = max(f.end_doy for f in fires)
    ticks = []
    for t in range(n_ticks):
        doy = first + (last - first) * t / (n_ticks - 1)
        snapshot = []
        for fire, (clon, clat) in zip(fires, centers):
            if doy < fire.start_doy:
                continue
            if t == n_ticks - 1 or doy >= fire.end_doy:
                snapshot.append(fire)
                continue
            elapsed = (doy - fire.start_doy) \
                / (fire.end_doy - fire.start_doy)
            fraction = _IGNITION_FRACTION \
                + (1.0 - _IGNITION_FRACTION) * elapsed
            snapshot.append(interpolated_perimeter(fire, clon, clat,
                                                   fraction))
        ticks.append(snapshot)
    return ticks


def generate_2019_season(whp: WhpModel, seed: int = 42) -> FireSeason:
    """The 2019 validation season: scripted fires + background season.

    Background acreage is reduced by the scripted fires' acreage so the
    national total still matches the 2019 record.
    """
    scripted = scripted_2019_fires()
    scripted_acres = sum(f.acres for f in scripted)
    total = year_stats(2019).acres_burned * 1e6 - scripted_acres
    background = generate_fire_season(2019, whp, seed=seed,
                                      total_acres=total)
    return FireSeason(year=2019, fires=scripted + background.fires)
