"""Tests for repro.geo.geometry."""

import numpy as np
import pytest

from repro.geo.geometry import (
    BBox,
    LineString,
    MultiPolygon,
    Point,
    Polygon,
    first_containing,
)
from repro.geo.projection import meters_per_degree

SQUARE = [(-100.0, 35.0), (-99.0, 35.0), (-99.0, 36.0), (-100.0, 36.0)]


class TestBBox:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            BBox(1, 0, 0, 1)

    def test_contains(self):
        box = BBox(-1, -1, 1, 1)
        assert box.contains(0, 0)
        assert box.contains(1, 1)  # boundary inclusive
        assert not box.contains(1.1, 0)

    def test_contains_many(self):
        box = BBox(-1, -1, 1, 1)
        got = box.contains_many([0, 2, -1], [0, 0, 1])
        np.testing.assert_array_equal(got, [True, False, True])

    def test_intersects(self):
        a = BBox(0, 0, 2, 2)
        assert a.intersects(BBox(1, 1, 3, 3))
        assert a.intersects(BBox(2, 2, 3, 3))  # touching counts
        assert not a.intersects(BBox(2.1, 0, 3, 1))

    def test_union(self):
        u = BBox(0, 0, 1, 1).union(BBox(2, -1, 3, 0.5))
        assert (u.min_lon, u.min_lat, u.max_lon, u.max_lat) \
            == (0, -1, 3, 1)

    def test_expand(self):
        e = BBox(0, 0, 1, 1).expand(0.5)
        assert e.min_lon == -0.5 and e.max_lat == 1.5

    def test_center_width_height(self):
        box = BBox(0, 0, 2, 4)
        assert box.center == Point(1, 2)
        assert box.width == 2 and box.height == 4

    def test_of_coords_empty_rejected(self):
        with pytest.raises(ValueError):
            BBox.of_coords([], [])


class TestLineString:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_bbox(self):
        ls = LineString([(0, 0), (2, 1), (1, 3)])
        assert ls.bbox == BBox(0, 0, 2, 3)

    def test_immutable_coords(self):
        ls = LineString([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            ls.coords[0, 0] = 5.0


class TestPolygon:
    def test_normalizes_winding(self):
        ccw = Polygon(SQUARE)
        cw = Polygon(SQUARE[::-1])
        np.testing.assert_allclose(ccw.exterior, cw.exterior)

    def test_contains(self):
        p = Polygon(SQUARE)
        assert p.contains(-99.5, 35.5)
        assert not p.contains(-98.0, 35.5)

    def test_contains_many_matches_scalar(self):
        p = Polygon(SQUARE)
        rng = np.random.default_rng(3)
        lons = rng.uniform(-101, -98, 500)
        lats = rng.uniform(34, 37, 500)
        vec = p.contains_many(lons, lats)
        for i in range(0, 500, 25):
            assert vec[i] == p.contains(lons[i], lats[i])

    def test_hole_excluded(self):
        hole = [(-99.7, 35.3), (-99.3, 35.3), (-99.3, 35.7), (-99.7, 35.7)]
        p = Polygon(SQUARE, holes=[hole])
        assert not p.contains(-99.5, 35.5)
        assert p.contains(-99.9, 35.9)
        vec = p.contains_many([-99.5, -99.9], [35.5, 35.9])
        np.testing.assert_array_equal(vec, [False, True])

    def test_contains_many_keeps_a_2d_shape(self):
        """A (2, 2) query answers in a (2, 2) array, as
        ``BBox.contains_many`` does, holes and all."""
        hole = [(-99.7, 35.3), (-99.3, 35.3), (-99.3, 35.7), (-99.7, 35.7)]
        lons = np.array([[-99.5, -99.9], [-98.0, -99.1]])
        lats = np.array([[35.5, 35.9], [35.5, 35.1]])
        want = np.array([[False, True], [False, True]])
        for shape in (Polygon(SQUARE, holes=[hole]),
                      MultiPolygon([Polygon(SQUARE, holes=[hole])])):
            got = shape.contains_many(lons, lats)
            assert got.shape == (2, 2)
            np.testing.assert_array_equal(got, want)

    def test_area_one_degree_cell(self):
        p = Polygon(SQUARE)
        mx, my = meters_per_degree(35.5)
        assert p.area_sqm() == pytest.approx(mx * my, rel=0.01)

    def test_area_with_hole_subtracted(self):
        hole = [(-99.75, 35.25), (-99.25, 35.25), (-99.25, 35.75),
                (-99.75, 35.75)]
        full = Polygon(SQUARE).area_sqm()
        holed = Polygon(SQUARE, holes=[hole]).area_sqm()
        assert holed == pytest.approx(full * 0.75, rel=0.01)

    def test_area_acres_conversion(self):
        p = Polygon(SQUARE)
        assert p.area_acres() == pytest.approx(p.area_sqm() / 4046.856,
                                               rel=1e-6)

    def test_centroid_of_square(self):
        c = Polygon(SQUARE).centroid()
        assert c.lon == pytest.approx(-99.5)
        assert c.lat == pytest.approx(35.5)

    def test_bbox(self):
        assert Polygon(SQUARE).bbox == BBox(-100, 35, -99, 36)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

class TestMultiPolygon:
    def test_requires_polygons(self):
        with pytest.raises(ValueError):
            MultiPolygon([])

    def test_contains_any(self):
        a = Polygon(SQUARE)
        b = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        mp = MultiPolygon([a, b])
        assert mp.contains(-99.5, 35.5)
        assert mp.contains(0.5, 0.5)
        assert not mp.contains(-50, 10)

    def test_bbox_union(self):
        a = Polygon(SQUARE)
        b = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        mp = MultiPolygon([a, b])
        assert mp.bbox == BBox(-100, 0, 1, 36)

    def test_area_sum(self):
        a = Polygon(SQUARE)
        mp = MultiPolygon([a, a])
        assert mp.area_sqm() == pytest.approx(2 * a.area_sqm())

    def test_contains_many(self):
        a = Polygon(SQUARE)
        b = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        mp = MultiPolygon([a, b])
        got = mp.contains_many([-99.5, 0.5, 10.0], [35.5, 0.5, 10.0])
        np.testing.assert_array_equal(got, [True, True, False])


def _first_hit_loop(shapes, lons, lats):
    """Oracle: every shape's ``contains_many`` over every point, the
    first hit kept."""
    want = np.full(np.shape(lons), -1, dtype=np.int64)
    for code, shape in enumerate(shapes):
        want[(want < 0) & shape.contains_many(lons, lats)] = code
    return want


class _Recording:
    """A shape that records the points each test is asked about."""

    def __init__(self, shape):
        self.shape = shape
        self.bbox = shape.bbox
        self.asked = []

    def contains_many(self, lons, lats):
        self.asked.append(len(lons))
        return self.shape.contains_many(lons, lats)


class TestFirstContaining:
    SHAPES = [
        BBox(-100.5, 35.2, -99.4, 35.7),
        Polygon(SQUARE),
        MultiPolygon([Polygon([(-99.5, 35.5), (-98.0, 35.5),
                               (-98.5, 36.5)]),
                      Polygon([(-101.0, 34.0), (-100.2, 34.0),
                               (-100.2, 34.8)])]),
        BBox(-101.0, 34.0, -98.0, 37.0),
    ]

    def test_box_edges_and_shared_vertices(self):
        """Closed boxes: edge and corner points go to the first box;
        the polygon after it takes only what the box left."""
        lons = np.array([-100.5, -99.4, -100.0, -99.0, -99.4, -98.0])
        lats = np.array([35.2, 35.7, 35.0, 36.0, 35.1, 37.0])
        got = first_containing(self.SHAPES, lons, lats)
        assert np.array_equal(got, _first_hit_loop(self.SHAPES, lons, lats))
        assert got[:2].tolist() == [0, 0]
        assert got[-1] == 3

    def test_shape_of_the_input_is_kept(self, rng):
        lons = rng.uniform(-101.5, -97.5, (40, 30))
        lats = rng.uniform(33.5, 37.5, (40, 30))
        got = first_containing(self.SHAPES, lons, lats)
        assert got.shape == (40, 30)
        assert np.array_equal(got.ravel(), first_containing(
            self.SHAPES, lons.ravel(), lats.ravel()))

    def test_no_shapes_no_points_and_nan(self):
        assert first_containing([], [1.0, 2.0], [3.0, 4.0]).tolist() \
            == [-1, -1]
        assert first_containing(self.SHAPES, [], []).shape == (0,)
        got = first_containing(self.SHAPES, [np.nan, -99.5, np.nan],
                               [35.5, np.nan, np.nan])
        assert got.tolist() == [-1, -1, -1]

    def test_exact_test_sees_only_free_points_in_its_box(self, rng):
        """Each exact test gets the points inside its shape's box that
        no earlier shape took, and nothing once every point is taken."""
        lons = rng.uniform(-101.5, -97.5, 5_000)
        lats = rng.uniform(33.5, 37.5, 5_000)
        first = _Recording(self.SHAPES[1])
        second = _Recording(self.SHAPES[2])
        everything = BBox(-180.0, -90.0, 180.0, 90.0)
        last = _Recording(Polygon(SQUARE))
        first_containing([self.SHAPES[0], first, second, everything, last],
                         lons, lats)
        taken = self.SHAPES[0].contains_many(lons, lats)
        assert first.asked == [int(
            (~taken & first.bbox.contains_many(lons, lats)).sum())]
        taken |= self.SHAPES[1].contains_many(lons, lats)
        assert second.asked == [int(
            (~taken & second.bbox.contains_many(lons, lats)).sum())]
        assert last.asked == []
