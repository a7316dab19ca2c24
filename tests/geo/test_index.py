"""Tests for repro.geo.index."""

import numpy as np
import pytest

from repro.geo.geometry import BBox, Polygon
from repro.geo.index import STRTree, UniformGridIndex


@pytest.fixture()
def points(rng):
    lons = rng.uniform(-110, -100, 5000)
    lats = rng.uniform(30, 40, 5000)
    return lons, lats


@pytest.fixture()
def index(points):
    return UniformGridIndex(points[0], points[1], cell_deg=0.5)


class TestUniformGridIndex:
    def test_empty(self):
        idx = UniformGridIndex(np.array([]), np.array([]))
        assert len(idx) == 0
        assert len(idx.query_bbox(BBox(0, 0, 1, 1))) == 0

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            UniformGridIndex(np.zeros(3), np.zeros(4))

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            UniformGridIndex(np.zeros(1), np.zeros(1), cell_deg=0)

    def test_query_bbox_matches_bruteforce(self, points, index):
        lons, lats = points
        box = BBox(-106, 33, -103, 36)
        got = set(index.query_bbox(box).tolist())
        want = set(np.nonzero(box.contains_many(lons, lats))[0].tolist())
        assert got == want

    def test_query_bbox_disjoint(self, index):
        assert len(index.query_bbox(BBox(0, 0, 1, 1))) == 0

    def test_query_polygon_matches_bruteforce(self, points, index):
        lons, lats = points
        poly = Polygon([(-108, 31), (-102, 33), (-104, 39), (-109, 37)])
        got = set(index.query_polygon(poly).tolist())
        want = set(np.nonzero(poly.contains_many(lons, lats))[0].tolist())
        assert got == want

    def test_all_points_in_full_bbox(self, points, index):
        lons, lats = points
        box = BBox(lons.min(), lats.min(), lons.max(), lats.max())
        assert len(index.query_bbox(box)) == len(lons)

    def test_single_point(self):
        idx = UniformGridIndex(np.array([-100.0]), np.array([40.0]))
        assert idx.query_bbox(BBox(-101, 39, -99, 41)).tolist() == [0]

    def test_bucket_range_clamped_to_grid(self, index):
        """An oversized query bbox clamps on all four window edges."""
        big = BBox(-500.0, -500.0, 500.0, 500.0)
        c0, c1, r0, r1 = index._bucket_range(big)
        assert c0 == 0 and r0 == 0
        assert c1 == index._ncols - 1
        assert r1 == index._nrows - 1
        # and the clamped window still returns every point
        assert len(index.query_bbox(big)) == len(index)

    def test_csr_layout_invariants(self, points, index):
        """Bucket pointers partition the point set exactly."""
        ptr = index._bucket_ptr
        assert ptr[0] == 0 and ptr[-1] == len(index)
        assert (np.diff(ptr) > 0).all()      # only occupied buckets stored
        assert len(index._uniq_keys) == len(ptr) - 1
        assert (np.diff(index._uniq_keys) > 0).all()
        assert sorted(index._order.tolist()) == list(range(len(index)))

    def test_bbox_queries_counted_before_early_returns(self, index):
        """Disjoint and empty-bucket queries still count as queries."""
        from repro.runtime.stats import STATS

        before = STATS.snapshot()
        index.query_bbox(BBox(10.0, 10.0, 11.0, 11.0))   # disjoint
        empty_idx = UniformGridIndex(np.array([]), np.array([]))
        empty_idx.query_bbox(BBox(0, 0, 1, 1))           # empty index
        delta = STATS.delta_since(before)
        assert delta["counters"].get("index.bbox_queries", 0) == 2


class TestQueryPolygonDelta:
    """The dirty-bucket delta path vs the batch polygon query."""

    OUTER = [(-108.0, 31.0), (-102.0, 33.0), (-104.0, 39.0),
             (-109.0, 37.0)]

    def _nested(self, fraction=0.6):
        pts = np.asarray(self.OUTER, dtype=float)
        center = pts.mean(axis=0)
        inner = center + fraction * (pts - center)
        return Polygon([tuple(p) for p in inner]), Polygon(self.OUTER)

    def test_bit_identical_to_batch(self, index):
        inner, outer = self._nested()
        prev = index.query_polygon(inner)
        assert len(prev) > 0
        got = index.query_polygon_delta(outer, prev)
        want = index.query_polygon(outer)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)     # values AND order

    def test_empty_prev_matches_batch(self, index):
        _, outer = self._nested()
        got = index.query_polygon_delta(
            outer, np.empty(0, dtype=np.int64))
        want = index.query_polygon(outer)
        assert np.array_equal(got, want)

    def test_identity_growth(self, index):
        """prev == the polygon's own answer: result unchanged."""
        _, outer = self._nested()
        prev = index.query_polygon(outer)
        got = index.query_polygon_delta(outer, prev)
        assert np.array_equal(got, prev)

    def test_disjoint_polygon(self, index):
        poly = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
        got = index.query_polygon_delta(
            poly, np.empty(0, dtype=np.int64))
        assert len(got) == 0

    def test_counter_parity_with_batch(self, index):
        from repro.runtime.stats import STATS

        inner, outer = self._nested()
        prev = index.query_polygon(inner)

        before = STATS.snapshot()
        index.query_polygon(outer)
        full = STATS.delta_since(before)["counters"]

        before = STATS.snapshot()
        index.query_polygon_delta(outer, prev)
        delta = STATS.delta_since(before)["counters"]

        for key in ("index.bbox_queries", "index.polygon_queries",
                    "index.candidates", "index.hits",
                    "index.pip_hits"):
            assert delta.get(key, 0) == full.get(key, 0), key
        # Only the unanswered candidates pay a point-in-polygon test;
        # the skipped tests are exactly the answered footprint.
        assert delta.get("index.pip_skipped", 0) == len(prev)
        assert delta.get("index.pip_tests", 0) + len(prev) \
            == full.get("index.pip_tests", 0)
        assert delta.get("index.pip_tests", 0) \
            < full.get("index.pip_tests", 0)
        assert delta.get("index.delta_queries", 0) == 1
        assert full.get("index.delta_queries", 0) == 0

    def test_bucket_accounting(self, index):
        from repro.runtime.stats import STATS

        inner, outer = self._nested()
        prev = index.query_polygon(inner)
        before = STATS.snapshot()
        index.query_polygon_delta(outer, prev)
        counters = STATS.delta_since(before)["counters"]
        dirty = counters.get("index.dirty_buckets", 0)
        skipped = counters.get("index.skipped_buckets", 0)
        assert dirty > 0
        # dirty + skipped covers exactly the occupied candidate
        # buckets of the grown perimeter's bbox window.
        _, _, nbuckets = index._candidate_runs(outer.bbox)
        assert dirty + skipped == int(nbuckets.sum())

    def test_random_growth_sequences(self, points, index, rng):
        """Chained delta queries track batch across random growth."""
        lons, lats = points
        for _ in range(5):
            cx = rng.uniform(-108, -102)
            cy = rng.uniform(32, 38)
            pts = np.asarray(self.OUTER, dtype=float)
            pts = np.array([cx, cy]) + 0.4 * (pts - pts.mean(axis=0))
            fractions = sorted(rng.uniform(0.2, 1.0, size=4))
            prev = None
            for f in fractions:
                ring = np.array([cx, cy]) \
                    + f * (pts - np.array([cx, cy]))
                poly = Polygon([tuple(p) for p in ring])
                if prev is None:
                    prev = index.query_polygon(poly)
                else:
                    prev = index.query_polygon_delta(poly, prev)
                want = np.nonzero(
                    poly.contains_many(lons, lats))[0]
                assert np.array_equal(np.sort(prev), want)


class TestSTRTree:
    def _boxes(self, rng, n=200):
        out = []
        for i in range(n):
            x = rng.uniform(-110, -100)
            y = rng.uniform(30, 40)
            w = rng.uniform(0.1, 1.0)
            h = rng.uniform(0.1, 1.0)
            out.append((BBox(x, y, x + w, y + h), i))
        return out

    def test_empty(self):
        tree = STRTree([])
        assert tree.query(BBox(0, 0, 1, 1)) == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            STRTree([], node_capacity=1)

    def test_query_matches_bruteforce(self, rng):
        items = self._boxes(rng)
        tree = STRTree(items)
        query = BBox(-106, 33, -104, 36)
        got = set(tree.query(query))
        want = {payload for box, payload in items
                if box.intersects(query)}
        assert got == want

    def test_query_point(self, rng):
        items = self._boxes(rng)
        tree = STRTree(items)
        got = set(tree.query_point(-105.0, 35.0))
        want = {payload for box, payload in items
                if box.contains(-105.0, 35.0)}
        assert got == want

    def test_single_item(self):
        tree = STRTree([(BBox(0, 0, 1, 1), "only")])
        assert tree.query(BBox(0.5, 0.5, 0.6, 0.6)) == ["only"]
        assert tree.query(BBox(2, 2, 3, 3)) == []

    def test_all_returned_for_huge_query(self, rng):
        items = self._boxes(rng, n=100)
        tree = STRTree(items)
        assert len(tree.query(BBox(-120, 20, -90, 50))) == 100
