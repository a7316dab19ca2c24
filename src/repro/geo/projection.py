"""Map projections and geodesic helpers.

The analyses in this package need three things from a projection layer:

* great-circle distances between lon/lat points (transceiver-to-city
  distances, metro-radius assignment),
* an equal-area planar projection so polygon areas (burned acreage, WHP
  cell areas) are meaningful, and
* unit conversions between the units the paper reports (miles, acres)
  and SI units.

We model the Earth as a sphere with the authalic radius, which keeps every
formula closed-form and is accurate to ~0.5% against the WGS84 ellipsoid —
far below the uncertainty of the synthetic data.  The equal-area projection
is the spherical Albers equal-area conic with the standard CONUS parameters
(standard parallels 29.5N and 45.5N, origin 23N 96W), i.e. the spherical
analogue of EPSG:5070 used by the USFS WHP product itself.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EARTH_RADIUS_M",
    "METERS_PER_MILE",
    "SQMETERS_PER_ACRE",
    "ACRES_PER_SQMETER",
    "miles_to_meters",
    "meters_to_miles",
    "sqmeters_to_acres",
    "acres_to_sqmeters",
    "haversine_m",
    "destination_point",
    "AlbersEqualArea",
    "CONUS_ALBERS",
    "meters_per_degree",
]

#: Authalic (equal-area) Earth radius in meters.
EARTH_RADIUS_M = 6_371_007.2

METERS_PER_MILE = 1_609.344
SQMETERS_PER_ACRE = 4_046.8564224
ACRES_PER_SQMETER = 1.0 / SQMETERS_PER_ACRE


def miles_to_meters(miles: float) -> float:
    """Convert statute miles to meters."""
    return miles * METERS_PER_MILE


def meters_to_miles(meters: float) -> float:
    """Convert meters to statute miles."""
    return meters / METERS_PER_MILE


def sqmeters_to_acres(sqmeters: float) -> float:
    """Convert square meters to acres."""
    return sqmeters * ACRES_PER_SQMETER


def acres_to_sqmeters(acres: float) -> float:
    """Convert acres to square meters."""
    return acres * SQMETERS_PER_ACRE


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance in meters between lon/lat points (degrees).

    Accepts scalars or numpy arrays (broadcasting applies).
    """
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(v, dtype=float))
                              for v in (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    a = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2)
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if d.ndim == 0:
        return float(d)
    return d


def destination_point(lon: float, lat: float, bearing_deg: float,
                      distance_m: float) -> tuple[float, float]:
    """Point reached from (lon, lat) going ``distance_m`` at ``bearing_deg``.

    Bearing is clockwise from north.  Returns (lon, lat) in degrees.
    """
    lat1 = math.radians(lat)
    lon1 = math.radians(lon)
    brng = math.radians(bearing_deg)
    ang = distance_m / EARTH_RADIUS_M
    lat2 = math.asin(math.sin(lat1) * math.cos(ang)
                     + math.cos(lat1) * math.sin(ang) * math.cos(brng))
    lon2 = lon1 + math.atan2(
        math.sin(brng) * math.sin(ang) * math.cos(lat1),
        math.cos(ang) - math.sin(lat1) * math.sin(lat2))
    return math.degrees(lon2), math.degrees(lat2)


def meters_per_degree(lat: float) -> tuple[float, float]:
    """(meters per degree longitude, meters per degree latitude) at ``lat``."""
    m_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat))
    return m_per_deg_lon, m_per_deg_lat


class AlbersEqualArea:
    """Spherical Albers equal-area conic projection.

    Planar areas computed in this projection equal spherical areas, which
    is exactly the property the acreage and WHP-cell computations need.

    Parameters follow the standard USGS CONUS setup by default.
    """

    def __init__(self, lon0: float = -96.0, lat0: float = 23.0,
                 lat1: float = 29.5, lat2: float = 45.5,
                 radius: float = EARTH_RADIUS_M):
        self.lon0 = float(lon0)
        self.lat0 = float(lat0)
        self.lat1 = float(lat1)
        self.lat2 = float(lat2)
        self.radius = float(radius)

        phi0, phi1, phi2 = (math.radians(v) for v in (lat0, lat1, lat2))
        if math.isclose(lat1, lat2):
            self._n = math.sin(phi1)
        else:
            self._n = (math.sin(phi1) + math.sin(phi2)) / 2.0
        if self._n == 0.0:
            raise ValueError("standard parallels must not straddle the "
                             "equator symmetrically (n would be zero)")
        self._c = math.cos(phi1) ** 2 + 2.0 * self._n * math.sin(phi1)
        self._rho0 = (self.radius
                      * math.sqrt(self._c - 2.0 * self._n * math.sin(phi0))
                      / self._n)

    def forward(self, lon, lat):
        """Project lon/lat degrees to (x, y) meters."""
        lon = np.radians(np.asarray(lon, dtype=float))
        lat = np.radians(np.asarray(lat, dtype=float))
        n = self._n
        arg = np.clip(self._c - 2.0 * n * np.sin(lat), 0.0, None)
        rho = self.radius * np.sqrt(arg) / n
        theta = n * (lon - math.radians(self.lon0))
        x = rho * np.sin(theta)
        y = self._rho0 - rho * np.cos(theta)
        return x, y

    def inverse(self, x, y):
        """Unproject (x, y) meters back to lon/lat degrees."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = self._n
        rho = np.sign(n) * np.hypot(x, self._rho0 - y)
        theta = np.arctan2(np.sign(n) * x, np.sign(n) * (self._rho0 - y))
        sin_lat = (self._c - (rho * n / self.radius) ** 2) / (2.0 * n)
        lat = np.degrees(np.arcsin(np.clip(sin_lat, -1.0, 1.0)))
        lon = self.lon0 + np.degrees(theta / n)
        return lon, lat


#: Shared CONUS Albers instance used across the package for area math.
CONUS_ALBERS = AlbersEqualArea()
