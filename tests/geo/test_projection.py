"""Tests for repro.geo.projection."""

import math

import numpy as np
import pytest

from repro.geo.projection import (
    CONUS_ALBERS,
    EARTH_RADIUS_M,
    AlbersEqualArea,
    acres_to_sqmeters,
    destination_point,
    haversine_m,
    meters_per_degree,
    meters_to_miles,
    miles_to_meters,
    sqmeters_to_acres,
)


class TestUnits:
    def test_mile_roundtrip(self):
        assert meters_to_miles(miles_to_meters(3.7)) == pytest.approx(3.7)

    def test_mile_value(self):
        assert miles_to_meters(1.0) == pytest.approx(1609.344)

    def test_acre_roundtrip(self):
        assert sqmeters_to_acres(acres_to_sqmeters(640.0)) \
            == pytest.approx(640.0)

    def test_acre_value(self):
        # one square mile is 640 acres
        sq_mile = miles_to_meters(1.0) ** 2
        assert sqmeters_to_acres(sq_mile) == pytest.approx(640.0, rel=1e-6)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(-100.0, 40.0, -100.0, 40.0) == 0.0

    def test_known_distance_la_to_ny(self):
        # LA to NYC great-circle distance is ~3,940 km
        d = haversine_m(-118.24, 34.05, -74.01, 40.71)
        assert d == pytest.approx(3.94e6, rel=0.02)

    def test_one_degree_latitude(self):
        d = haversine_m(-100.0, 40.0, -100.0, 41.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 180.0,
                                  rel=1e-6)

    def test_vectorized_matches_scalar(self):
        lons = np.array([-100.0, -90.0, -80.0])
        lats = np.array([30.0, 40.0, 45.0])
        vec = haversine_m(-95.0, 35.0, lons, lats)
        for i in range(3):
            scalar = haversine_m(-95.0, 35.0, float(lons[i]),
                                 float(lats[i]))
            assert vec[i] == pytest.approx(scalar)

    def test_symmetry(self):
        a = haversine_m(-120.0, 35.0, -80.0, 45.0)
        b = haversine_m(-80.0, 45.0, -120.0, 35.0)
        assert a == pytest.approx(b)


class TestDestinationPoint:
    def test_north_increases_latitude(self):
        lon, lat = destination_point(-100.0, 40.0, 0.0, 10_000.0)
        assert lat > 40.0
        assert lon == pytest.approx(-100.0, abs=1e-9)

    def test_east_increases_longitude(self):
        lon, lat = destination_point(-100.0, 40.0, 90.0, 10_000.0)
        assert lon > -100.0

    def test_distance_consistency(self):
        lon, lat = destination_point(-100.0, 40.0, 37.0, 25_000.0)
        assert haversine_m(-100.0, 40.0, lon, lat) \
            == pytest.approx(25_000.0, rel=1e-6)


class TestMetersPerDegree:
    def test_latitude_constant(self):
        _, my_equator = meters_per_degree(0.0)
        _, my_mid = meters_per_degree(45.0)
        assert my_equator == pytest.approx(my_mid)

    def test_longitude_shrinks_with_latitude(self):
        mx0, _ = meters_per_degree(0.0)
        mx60, _ = meters_per_degree(60.0)
        assert mx60 == pytest.approx(mx0 / 2.0, rel=1e-6)


class TestAlbers:
    def test_roundtrip_scalar(self):
        x, y = CONUS_ALBERS.forward(-120.3, 37.2)
        lon, lat = CONUS_ALBERS.inverse(x, y)
        assert lon == pytest.approx(-120.3, abs=1e-9)
        assert lat == pytest.approx(37.2, abs=1e-9)

    def test_roundtrip_vectorized(self):
        rng = np.random.default_rng(0)
        lons = rng.uniform(-124, -67, 100)
        lats = rng.uniform(25, 49, 100)
        x, y = CONUS_ALBERS.forward(lons, lats)
        lon2, lat2 = CONUS_ALBERS.inverse(x, y)
        np.testing.assert_allclose(lon2, lons, atol=1e-9)
        np.testing.assert_allclose(lat2, lats, atol=1e-9)

    def test_origin_maps_near_axis(self):
        x, _ = CONUS_ALBERS.forward(-96.0, 30.0)
        assert abs(x) < 1e-6

    def test_equal_area_property(self):
        """A 1x1-degree cell's projected area matches its true area."""
        for lat in (28.0, 37.0, 45.0):
            corners_lon = np.array([-100.0, -99.0, -99.0, -100.0])
            corners_lat = np.array([lat, lat, lat + 1.0, lat + 1.0])
            x, y = CONUS_ALBERS.forward(corners_lon, corners_lat)
            # shoelace
            area = 0.5 * abs(
                np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
            mx, my = meters_per_degree(lat + 0.5)
            assert area == pytest.approx(mx * my, rel=0.01)

    def test_rejects_degenerate_parallels(self):
        with pytest.raises(ValueError):
            AlbersEqualArea(lat1=-30.0, lat2=30.0)

    def test_custom_parallels_roundtrip(self):
        proj = AlbersEqualArea(lon0=-100.0, lat0=40.0, lat1=35.0,
                               lat2=45.0)
        x, y = proj.forward(-102.5, 41.0)
        lon, lat = proj.inverse(x, y)
        assert (lon, lat) == (pytest.approx(-102.5), pytest.approx(41.0))
