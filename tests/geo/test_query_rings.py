"""The batched ring join, ``UniformGridIndex.query_rings``.

Its oracle is the per-polygon loop every join ran before it: one
``query_polygon`` call per ring.  For any batch the kernel must return
each ring's hits with the loop's values, order and dtype, and leave
every ``index.*`` counter, zero-valued ones included, exactly where the
loop leaves it.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.overlay import (
    JoinTask,
    join_items,
    overlay_fires,
    overlay_fires_bruteforce,
    pack_task,
)
from repro.data.cells import CellUniverse
from repro.data.wildfires import FirePerimeter
from repro.geo import index as index_module
from repro.geo.geometry import MultiPolygon, Polygon
from repro.geo.index import UniformGridIndex
from repro.runtime.stats import PerfRegistry


@contextmanager
def _counters():
    """A fresh counter registry for the index meanwhile; yields its
    counters dict."""
    saved = index_module.STATS
    index_module.STATS = PerfRegistry()
    try:
        yield index_module.STATS._counters
    finally:
        index_module.STATS = saved


def _loop_join(index, polygons):
    """The oracle: one ``query_polygon`` call per polygon."""
    hits = [index.query_polygon(p) for p in polygons]
    counts = np.array([len(h) for h in hits], dtype=np.int64)
    return counts, (np.concatenate(hits) if hits
                    else np.empty(0, dtype=np.int64))


def _pack(polygons):
    task = pack_task([(FirePerimeter(f"F{i}", 2019, 1, 2, 1.0, p), None)
                      for i, p in enumerate(polygons)])
    assert not task.rest
    return task


def assert_kernel_is_the_loop(index, polygons):
    task = _pack(polygons)
    with _counters() as loop_counters:
        want_counts, want_hits = _loop_join(index, polygons)
    with _counters() as kernel_counters:
        counts, hits = index.query_rings(task.coords, task.offsets,
                                         task.boxes)
    assert counts.dtype == want_counts.dtype == np.int64
    assert np.array_equal(counts, want_counts)
    assert hits.dtype == want_hits.dtype
    assert np.array_equal(hits, want_hits)
    assert kernel_counters == loop_counters
    assert index.candidate_count(task.boxes) == \
        loop_counters.get("index.candidates", 0)


# Strategies -----------------------------------------------------------

CELL = st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0 / 3.0])


@st.composite
def rings(draw):
    """A star-shaped CCW ring, optionally with horizontal edges and a
    last vertex within ``np.allclose`` of the first."""
    n = draw(st.integers(min_value=3, max_value=30))
    cx = draw(st.floats(min_value=-3.0, max_value=3.0))
    cy = draw(st.floats(min_value=-3.0, max_value=3.0))
    radii = np.array(draw(st.lists(st.floats(min_value=0.05, max_value=2.0),
                                   min_size=n, max_size=n)))
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.column_stack([cx + radii * np.cos(theta),
                            cy + radii * np.sin(theta)])
    for k in draw(st.lists(st.integers(min_value=1, max_value=n - 1),
                           max_size=3)):
        ring[k, 1] = ring[k - 1, 1]          # a horizontal edge
    if draw(st.booleans()):
        # A closing vertex inside the allclose tolerance: kept by the
        # trusted constructor, trimmed by ring preparation.
        ring = np.vstack([ring, ring[0] * (1 + 1e-9)])
    return ring


def _polygon(ring, trusted):
    if trusted:
        return Polygon.from_ccw_ring(ring)
    return Polygon(ring)


@st.composite
def batches(draw):
    cell = draw(CELL)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_points = draw(st.integers(min_value=0, max_value=400))
    lons = rng.uniform(-2.0, 2.0, n_points)
    lats = rng.uniform(-2.0, 2.0, n_points)
    ring_list = draw(st.lists(rings(), max_size=6))
    trusted = draw(st.lists(st.booleans(), min_size=len(ring_list),
                            max_size=len(ring_list)))
    polygons = [_polygon(r, t) for r, t in zip(ring_list, trusted)]
    if n_points:
        # Points exactly on vertices, on bucket boundaries
        # (``min + k * cell``) and on the grid's corner.
        verts = np.concatenate([r[:-1] for r in ring_list] or
                               [np.empty((0, 2))])
        keep = (np.abs(verts) <= 2.0).all(axis=1)
        k = np.arange(-2, 30)
        lon0, lat0 = lons.min(), lats.min()
        lons = np.concatenate([lons, verts[keep, 0], lon0 + k * cell,
                               np.full(len(k), lon0)])
        lats = np.concatenate([lats, verts[keep, 1],
                               np.full(len(k), lat0), lat0 + k * cell])
    return UniformGridIndex(lons, lats, cell_deg=cell), polygons


@given(batches())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernel_equals_the_per_polygon_loop(batch):
    index, polygons = batch
    assert_kernel_is_the_loop(index, polygons)


# Edge cases -----------------------------------------------------------

@pytest.fixture()
def grid():
    rng = np.random.default_rng(7)
    lons = np.concatenate([rng.uniform(0.0, 4.0, 3000),
                           np.arange(0.0, 4.01, 0.25)])
    lats = np.concatenate([rng.uniform(0.0, 4.0, 3000),
                           np.full(17, 1.0)])
    return UniformGridIndex(lons, lats, cell_deg=0.25)


def test_points_on_vertices_and_edges(grid):
    square = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
    # The index holds (0.5, 1.0) and (1.5, 1.0): on the square's
    # vertical edges, and (1.0, 1.0) inside.
    diamond = Polygon.from_ccw_ring(
        np.array([(2.0, 0.25), (3.0, 1.0), (2.0, 1.75), (1.0, 1.0)]))
    assert_kernel_is_the_loop(grid, [square, diamond, square])


def test_rings_off_and_across_the_extent(grid):
    off = Polygon([(10.0, 10.0), (11.0, 10.0), (11.0, 11.0)])
    across = Polygon([(-1.0, -1.0), (0.75, -1.0), (0.75, 0.75),
                      (-1.0, 0.75)])
    around = Polygon([(-5.0, -5.0), (9.0, -5.0), (9.0, 9.0), (-5.0, 9.0)])
    assert_kernel_is_the_loop(grid, [off, across, around, off])


def test_zero_width_and_zero_height_boxes(grid):
    # Collinear rings: their boxes have no width (or no height), and
    # points on the line are candidates that no crossing holds.
    vertical = Polygon.from_ccw_ring(
        np.array([(1.0, 0.5), (1.0, 1.0), (1.0, 2.0)]))
    horizontal = Polygon.from_ccw_ring(
        np.array([(0.5, 1.0), (2.0, 1.0), (3.0, 1.0)]))
    assert vertical.bbox.width == 0.0 and horizontal.bbox.height == 0.0
    assert_kernel_is_the_loop(grid, [vertical, horizontal])


def test_closing_vertex_within_tolerance_is_trimmed(grid):
    ring = np.array([(0.5, 0.5), (3.5, 0.5), (3.5, 3.5), (0.5, 3.5),
                     (0.5 + 1e-9, 0.5)])
    trusted = Polygon.from_ccw_ring(ring)
    assert len(trusted.exterior) == 5      # kept by the constructor
    assert_kernel_is_the_loop(grid, [trusted, Polygon(ring)])


def test_empty_ring_list_and_empty_index(grid):
    assert_kernel_is_the_loop(grid, [])
    empty = UniformGridIndex(np.array([]), np.array([]))
    square = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)])
    assert_kernel_is_the_loop(empty, [square, square])
    with _counters() as counters:
        counts, hits = grid.query_rings(np.empty((0, 2)),
                                        np.zeros(1, dtype=np.int64),
                                        np.empty((0, 4)))
    assert counts.shape == hits.shape == (0,) and counters == {}


def test_a_ring_too_short_to_prepare_raises_as_the_loop_does(grid):
    # Two distinct vertices after the closing-vertex trim.
    short = Polygon.from_ccw_ring(
        np.array([(0.5, 0.5), (3.5, 3.5), (0.5, 0.5 + 1e-9)]))
    with pytest.raises(ValueError, match="3 distinct"):
        grid.query_polygon(short)
    with pytest.raises(ValueError, match="3 distinct"):
        task = _pack([short])
        grid.query_rings(task.coords, task.offsets, task.boxes)


def test_holed_and_multipart_items_take_the_fallback():
    """A holed polygon and a multi-polygon ride in the same task as
    plain rings; the join equals the brute-force overlay."""
    rng = np.random.default_rng(3)
    n = 4000
    cells = CellUniverse(
        lons=rng.uniform(0.0, 4.0, n), lats=rng.uniform(0.0, 4.0, n),
        site_ids=np.arange(n, dtype=np.int64),
        mcc=np.full(n, 310, dtype=np.int32),
        mnc=np.zeros(n, dtype=np.int32),
        provider_group=np.zeros(n, dtype=np.int8),
        radio=np.zeros(n, dtype=np.int8))
    holed = Polygon([(0.2, 0.2), (2.0, 0.2), (2.0, 2.0), (0.2, 2.0)],
                    holes=[[(0.8, 0.8), (1.4, 0.8), (1.4, 1.4),
                            (0.8, 1.4)]])
    multi = MultiPolygon([
        Polygon([(2.5, 2.5), (3.5, 2.5), (3.5, 3.5)]),
        Polygon([(0.5, 3.0), (1.5, 3.0), (1.0, 3.8)])])
    plain = Polygon([(1.5, 1.5), (3.0, 1.0), (2.5, 3.0)])
    fires = [FirePerimeter(f"F{i}", 2019, 1, 2, 1.0, poly)
             for i, poly in enumerate([plain, holed, multi, plain])]
    task = pack_task([(fire, None) for fire in fires])
    assert isinstance(task, JoinTask)
    assert task.ring_pos.tolist() == [0, 3]
    assert [pos for pos, _, _ in task.rest] == [1, 2]
    counts, hits = join_items(cells.index(), task)
    want = overlay_fires_bruteforce(cells, fires, year=2019)
    assert counts.tolist() == [want.per_fire_counts[f.name]
                               for f in fires]
    assert np.array_equal(np.sort(hits[counts[0]:counts[0] + counts[1]]),
                          want.per_fire_hits["F1"])
    got = overlay_fires(cells, fires, year=2019, workers=1,
                        use_cache=False)
    assert np.array_equal(got.in_perimeter_mask, want.in_perimeter_mask)
    assert got.per_fire_counts == want.per_fire_counts
    # The task carries arrays for the rings and the two fallback
    # polygons, not event objects.
    assert [type(poly) for _, poly, _ in task.rest] == [Polygon,
                                                        MultiPolygon]
