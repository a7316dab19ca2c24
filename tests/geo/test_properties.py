"""Property-based tests (hypothesis) for the geometry engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import (
    BBox,
    MultiPolygon,
    Polygon,
    first_containing,
)
from repro.geo.index import STRTree, UniformGridIndex
from repro.geo.predicates import (
    PIP_POINT_BLOCK,
    point_in_ring,
    points_in_ring,
    points_in_ring_serial,
    ring_area_signed,
)
from repro.geo.projection import CONUS_ALBERS, haversine_m

# Strategies -----------------------------------------------------------

conus_lon = st.floats(min_value=-124.0, max_value=-67.0,
                      allow_nan=False, allow_infinity=False)
conus_lat = st.floats(min_value=25.0, max_value=49.0,
                      allow_nan=False, allow_infinity=False)


def _star(cx, cy, radii):
    theta = np.linspace(0, 2 * np.pi, len(radii), endpoint=False)
    r = np.asarray(radii)
    return np.column_stack([cx + r * np.cos(theta),
                            cy + r * np.sin(theta)])


@st.composite
def star_rings(draw):
    """Random star-shaped rings (always simple polygons)."""
    n = draw(st.integers(min_value=3, max_value=24))
    cx = draw(st.floats(min_value=-110, max_value=-90))
    cy = draw(st.floats(min_value=30, max_value=45))
    radii = draw(st.lists(
        st.floats(min_value=0.05, max_value=2.0), min_size=n, max_size=n))
    return _star(cx, cy, radii)


# Projection properties ------------------------------------------------

@given(conus_lon, conus_lat)
@settings(max_examples=200, deadline=None)
def test_albers_roundtrip(lon, lat):
    x, y = CONUS_ALBERS.forward(lon, lat)
    lon2, lat2 = CONUS_ALBERS.inverse(x, y)
    assert abs(lon2 - lon) < 1e-8
    assert abs(lat2 - lat) < 1e-8


@given(conus_lon, conus_lat, conus_lon, conus_lat)
@settings(max_examples=100, deadline=None)
def test_haversine_symmetry_and_triangle(lon1, lat1, lon2, lat2):
    d12 = haversine_m(lon1, lat1, lon2, lat2)
    d21 = haversine_m(lon2, lat2, lon1, lat1)
    assert abs(d12 - d21) < 1e-6
    assert d12 >= 0.0
    # triangle inequality through a midpoint
    mid_lon = (lon1 + lon2) / 2
    mid_lat = (lat1 + lat2) / 2
    via = haversine_m(lon1, lat1, mid_lon, mid_lat) \
        + haversine_m(mid_lon, mid_lat, lon2, lat2)
    assert via >= d12 - 1e-6


# Geometry properties ---------------------------------------------------

@given(star_rings())
@settings(max_examples=100, deadline=None)
def test_polygon_normalization_invariants(ring):
    p = Polygon(ring)
    # exterior is CCW after normalization
    assert ring_area_signed(p.exterior) > 0
    # centroid of a star polygon is inside its bbox
    c = p.centroid()
    assert p.bbox.contains(c.lon, c.lat)
    # area non-negative
    assert p.area_sqm() >= 0


@given(star_rings())
@settings(max_examples=60, deadline=None)
def test_winding_does_not_change_area(ring):
    a = Polygon(ring).area_sqm()
    b = Polygon(ring[::-1]).area_sqm()
    assert abs(a - b) <= 1e-6 * max(a, 1.0)


@given(star_rings())
@settings(max_examples=60, deadline=None)
def test_contains_many_matches_scalar(ring):
    p = Polygon(ring)
    box = p.bbox.expand(0.5)
    rng = np.random.default_rng(0)
    lons = rng.uniform(box.min_lon, box.max_lon, 64)
    lats = rng.uniform(box.min_lat, box.max_lat, 64)
    vec = p.contains_many(lons, lats)
    scalar = np.array([p.contains(lon, lat)
                       for lon, lat in zip(lons, lats)])
    # allow disagreement only exactly on edges (measure-zero; the random
    # draws essentially never land there)
    assert (vec == scalar).all()


@given(star_rings())
@settings(max_examples=40, deadline=None)
def test_points_in_ring_subset_of_bbox(ring):
    box = Polygon(ring).bbox
    rng = np.random.default_rng(1)
    lons = rng.uniform(box.min_lon - 1, box.max_lon + 1, 128)
    lats = rng.uniform(box.min_lat - 1, box.max_lat + 1, 128)
    inside = points_in_ring(lons, lats, ring)
    in_box = box.contains_many(lons, lats)
    assert not (inside & ~in_box).any()


# One-kernel properties ---------------------------------------------------
#
# ``Polygon.contains_many`` and ``points_in_ring`` run one crossing-number
# kernel over an edge table.  Their oracle is the per-edge loop
# ``points_in_ring_serial`` over every point, with no bbox prefilter, and
# holes and parts combined by hand.

def _oracle(shape, lons, lats) -> np.ndarray:
    if isinstance(shape, MultiPolygon):
        out = np.zeros(lons.shape, dtype=bool)
        for part in shape.polygons:
            out |= _oracle(part, lons, lats)
        return out
    inside = points_in_ring_serial(lons, lats, shape.exterior)
    for hole in shape.holes:
        inside &= ~points_in_ring_serial(lons, lats, hole)
    return inside


@st.composite
def holed_stars(draw):
    """A star polygon with up to two holes: the ring shrunk about its
    centre, which keeps it inside, or a free star ring anywhere."""
    n = draw(st.integers(min_value=3, max_value=24))
    cx = draw(st.floats(min_value=-110, max_value=-90))
    cy = draw(st.floats(min_value=30, max_value=45))
    radii = np.asarray(draw(st.lists(
        st.floats(min_value=0.05, max_value=2.0), min_size=n, max_size=n)))
    holes = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if draw(st.booleans()):
            k = draw(st.floats(min_value=0.1, max_value=0.9))
            holes.append(_star(cx, cy, k * radii))
        else:
            holes.append(draw(star_rings()))
    return Polygon(_star(cx, cy, radii), holes=holes)


@st.composite
def skylines(draw):
    """An axis-parallel skyline polygon on a 0.25-degree lattice, with a
    hole in its first bar: many horizontal edges, and exact vertex
    coordinates for the lattice query points to land on."""
    k = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(st.integers(min_value=1, max_value=4),
                          min_size=k, max_size=k))
    heights = draw(st.lists(st.integers(min_value=2, max_value=8),
                            min_size=k, max_size=k))
    xs = -100.0 + 0.25 * np.concatenate([[0], np.cumsum(steps)])
    ys = 35.0 + 0.25 * np.asarray(heights, dtype=float)
    ring = [(xs[0], 35.0), (xs[-1], 35.0)]
    for i in range(k - 1, -1, -1):
        ring += [(xs[i + 1], ys[i]), (xs[i], ys[i])]
    holes = []
    if draw(st.booleans()) and steps[0] >= 3 and heights[0] >= 3:
        holes.append([(xs[0] + 0.25, 35.25), (xs[1] - 0.25, 35.25),
                      (xs[1] - 0.25, ys[0] - 0.25),
                      (xs[0] + 0.25, ys[0] - 0.25)])
    return Polygon(ring, holes=holes)


def _query_points(shape, rng):
    """Random points around the shape, every ring vertex, every edge
    midpoint, the 1/8-degree lattice over the box (points on horizontal
    edges and on horizontal rays through vertices among them) and NaN
    coordinates."""
    box = shape.bbox.expand(0.5)
    lons = [rng.uniform(box.min_lon, box.max_lon, 200)]
    lats = [rng.uniform(box.min_lat, box.max_lat, 200)]
    for part in getattr(shape, "polygons", [shape]):
        for ring in (part.exterior, *part.holes):
            mid = (ring + np.roll(ring, -1, axis=0)) / 2
            lons += [ring[:, 0], mid[:, 0]]
            lats += [ring[:, 1], mid[:, 1]]
    gx = np.arange(np.floor(box.min_lon * 8), np.ceil(box.max_lon * 8)) / 8
    gy = np.arange(np.floor(box.min_lat * 8), np.ceil(box.max_lat * 8)) / 8
    if gx.size * gy.size <= 20_000:
        mx, my = np.meshgrid(gx, gy)
        lons.append(mx.ravel())
        lats.append(my.ravel())
    lons.append([np.nan, box.min_lon, np.nan])
    lats.append([box.min_lat, np.nan, np.nan])
    return np.concatenate(lons), np.concatenate(lats)


@given(st.one_of(holed_stars(), skylines()),
       st.one_of(st.none(), holed_stars(), skylines()),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_contains_many_equals_the_serial_oracle(first, second, seed):
    """Holed polygons and multipolygons answer as the serial oracle
    does, on vertices, edge midpoints, horizontal edges and NaN too."""
    shape = first if second is None else MultiPolygon([first, second])
    lons, lats = _query_points(shape, np.random.default_rng(seed))
    got = shape.contains_many(lons, lats)
    assert got.dtype == bool and got.shape == lons.shape
    assert np.array_equal(got, _oracle(shape, lons, lats))
    assert not got[np.isnan(lons) | np.isnan(lats)].any()


@pytest.mark.parametrize("n_vertices, n_holes", [(5, 0), (40, 1),
                                                 (300, 2)])
def test_more_points_than_one_tile(n_vertices, n_holes):
    """A ring queried with more points than one ``PIP_POINT_BLOCK`` tile
    holds answers as the serial oracle does."""
    rng = np.random.default_rng(n_vertices)
    radii = rng.uniform(0.2, 2.0, n_vertices)
    polygon = Polygon(_star(-100.0, 38.0, radii),
                      holes=[_star(-100.0, 38.0, k * radii)
                             for k in (0.3, 0.6)[:n_holes]])
    n = PIP_POINT_BLOCK + 4_321
    box = polygon.bbox.expand(0.1)
    lons = rng.uniform(box.min_lon, box.max_lon, n)
    lats = rng.uniform(box.min_lat, box.max_lat, n)
    assert np.array_equal(points_in_ring(lons, lats, polygon.exterior),
                          points_in_ring_serial(lons, lats,
                                                polygon.exterior))
    assert np.array_equal(polygon.contains_many(lons, lats),
                          _oracle(polygon, lons, lats))


@given(star_rings(), st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_closing_vertex_within_allclose_is_trimmed(ring, fx, fy, seed):
    """A last vertex within ``np.allclose`` of the first closes the
    ring: every test answers as on the open ring, the trusted
    ``Polygon.from_ccw_ring`` included."""
    x0, y0 = ring[0]
    closing = (x0 + fx * (1e-8 + 1e-5 * abs(x0)),
               y0 + fy * (1e-8 + 1e-5 * abs(y0)))
    assert np.allclose(closing, ring[0])
    closed = np.vstack([ring, closing])
    open_polygon = Polygon(ring)
    box = open_polygon.bbox.expand(0.5)
    rng = np.random.default_rng(seed)
    lons = np.concatenate([rng.uniform(box.min_lon, box.max_lon, 96),
                           ring[:, 0]])
    lats = np.concatenate([rng.uniform(box.min_lat, box.max_lat, 96),
                           ring[:, 1]])
    want = points_in_ring(lons, lats, ring)
    assert np.array_equal(points_in_ring(lons, lats, closed), want)
    assert np.array_equal(points_in_ring_serial(lons, lats, closed), want)
    for polygon in (Polygon(closed), Polygon.from_ccw_ring(closed)):
        assert np.array_equal(polygon.contains_many(lons, lats),
                              open_polygon.contains_many(lons, lats))


@st.composite
def region_shapes(draw):
    """A mix of boxes, polygons and multipolygons that overlap."""
    shapes = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["box", "polygon", "multi"]))
        if kind == "box":
            lon = draw(st.floats(min_value=-111, max_value=-90))
            lat = draw(st.floats(min_value=29, max_value=45))
            w = draw(st.floats(min_value=0.0, max_value=4.0))
            h = draw(st.floats(min_value=0.0, max_value=4.0))
            shapes.append(BBox(lon, lat, lon + w, lat + h))
        elif kind == "polygon":
            shapes.append(Polygon(draw(star_rings())))
        else:
            shapes.append(MultiPolygon([Polygon(draw(star_rings())),
                                        Polygon(draw(star_rings()))]))
    return shapes


@given(region_shapes(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_first_containing_equals_the_first_hit(shapes, seed):
    """Codes equal testing every shape over every point and keeping the
    first hit; box corners and ring vertices are among the points."""
    rng = np.random.default_rng(seed)
    lons = list(rng.uniform(-112, -86, 400))
    lats = list(rng.uniform(28, 49, 400))
    for shape in shapes:
        box = shape if isinstance(shape, BBox) else shape.bbox
        lons += [box.min_lon, box.max_lon, box.min_lon, box.max_lon]
        lats += [box.min_lat, box.min_lat, box.max_lat, box.max_lat]
        for poly in getattr(shape, "polygons", [shape]):
            if isinstance(poly, Polygon):
                lons += poly.exterior[:, 0].tolist()
                lats += poly.exterior[:, 1].tolist()
    lons, lats = np.array(lons), np.array(lats)
    want = np.full(len(lons), -1)
    for code, shape in enumerate(shapes):
        want[(want < 0) & shape.contains_many(lons, lats)] = code
    assert np.array_equal(first_containing(shapes, lons, lats), want)


# Index properties -------------------------------------------------------

@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_grid_index_bbox_query_exact(n, cell):
    rng = np.random.default_rng(n)
    lons = rng.uniform(-110, -100, n)
    lats = rng.uniform(30, 40, n)
    idx = UniformGridIndex(lons, lats, cell_deg=cell)
    box = BBox(-107.0, 33.0, -103.0, 37.0)
    got = set(idx.query_bbox(box).tolist())
    want = set(np.nonzero(box.contains_many(lons, lats))[0].tolist())
    assert got == want


# Predicate properties (point-in-polygon correctness) --------------------

@given(star_rings(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_points_in_ring_matches_scalar_predicate(ring, seed):
    """The vectorized crossing test agrees with the scalar one."""
    box = Polygon(ring).bbox.expand(0.5)
    rng = np.random.default_rng(seed)
    lons = rng.uniform(box.min_lon, box.max_lon, 96)
    lats = rng.uniform(box.min_lat, box.max_lat, 96)
    vec = points_in_ring(lons, lats, ring)
    # point_in_ring additionally treats exact-boundary points as inside;
    # random draws land on edges with probability zero, so any
    # disagreement is a real bug.
    scalar = np.array([point_in_ring(lon, lat, ring)
                       for lon, lat in zip(lons, lats)])
    assert (vec == scalar).all()


@given(star_rings(), st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.05, max_value=1.5))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_grid_index_polygon_query_exact(ring, seed, cell):
    """Every index hit is a true hit; no true hit is missed.

    The oracle is the exhaustive scan (``contains_many`` over all
    points) — exactly the bruteforce side of the runtime differential
    suite, here driven by random polygons and bucket sizes.
    """
    polygon = Polygon(ring)
    rng = np.random.default_rng(seed)
    box = polygon.bbox.expand(1.0)
    lons = rng.uniform(box.min_lon, box.max_lon, 300)
    lats = rng.uniform(box.min_lat, box.max_lat, 300)
    idx = UniformGridIndex(lons, lats, cell_deg=cell)
    got = set(idx.query_polygon(polygon).tolist())
    want = set(np.nonzero(polygon.contains_many(lons, lats))[0].tolist())
    assert got - want == set(), "index returned a false hit"
    assert want - got == set(), "index missed a true hit"


@given(st.integers(min_value=1, max_value=120),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_strtree_query_matches_exhaustive_scan(n, seed):
    """STRTree returns exactly the bboxes an exhaustive scan finds."""
    rng = np.random.default_rng(seed)
    boxes = []
    for i in range(n):
        lon = rng.uniform(-120, -70)
        lat = rng.uniform(25, 48)
        w = rng.uniform(0.01, 4.0)
        h = rng.uniform(0.01, 4.0)
        boxes.append((BBox(lon, lat, lon + w, lat + h), i))
    tree = STRTree(boxes)
    query = BBox(-105.0, 33.0, -95.0, 41.0)
    got = set(tree.query(query))
    want = {payload for bbox, payload in boxes if bbox.intersects(query)}
    assert got == want
