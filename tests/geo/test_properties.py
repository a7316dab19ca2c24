"""Property-based tests (hypothesis) for the geometry engine."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import (
    BBox,
    MultiPolygon,
    Polygon,
    PreparedPolygon,
    first_containing,
)
from repro.geo.index import STRTree, UniformGridIndex
from repro.geo.predicates import (
    point_in_ring,
    points_in_ring,
    prepare_ring,
    ring_area_signed,
)
from repro.geo.projection import CONUS_ALBERS, haversine_m

# Strategies -----------------------------------------------------------

conus_lon = st.floats(min_value=-124.0, max_value=-67.0,
                      allow_nan=False, allow_infinity=False)
conus_lat = st.floats(min_value=25.0, max_value=49.0,
                      allow_nan=False, allow_infinity=False)


@st.composite
def star_rings(draw):
    """Random star-shaped rings (always simple polygons)."""
    n = draw(st.integers(min_value=3, max_value=24))
    cx = draw(st.floats(min_value=-110, max_value=-90))
    cy = draw(st.floats(min_value=30, max_value=45))
    radii = draw(st.lists(
        st.floats(min_value=0.05, max_value=2.0), min_size=n, max_size=n))
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    r = np.asarray(radii)
    return np.column_stack([cx + r * np.cos(theta),
                            cy + r * np.sin(theta)])


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


# Prepared-geometry properties ------------------------------------------

@given(star_rings(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prepared_ring_matches_raw_ring(ring, seed):
    """points_in_ring is bit-identical on prepared and raw rings."""
    prepared = prepare_ring(ring)
    assert ring_area_signed(prepared) == ring_area_signed(ring)
    box = Polygon(ring).bbox.expand(0.5)
    rng = np.random.default_rng(seed)
    lons = rng.uniform(box.min_lon, box.max_lon, 96)
    lats = rng.uniform(box.min_lat, box.max_lat, 96)
    raw = points_in_ring(lons, lats, ring)
    fast = points_in_ring(lons, lats, prepared)
    assert (raw == fast).all()


@given(star_rings(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prepared_polygon_matches_exhaustive_scan(ring, seed):
    """PreparedPolygon agrees with the scalar exhaustive reference."""
    polygon = Polygon(ring)
    prepared = PreparedPolygon.of(polygon)
    box = polygon.bbox.expand(0.5)
    rng = np.random.default_rng(seed)
    lons = rng.uniform(box.min_lon, box.max_lon, 128)
    lats = rng.uniform(box.min_lat, box.max_lat, 128)
    vec = prepared.contains_many(lons, lats)
    scalar = np.array([prepared.contains(lon, lat)
                       for lon, lat in zip(lons, lats)])
    # Independent oracle: the crossing test over every point with no
    # bbox pre-filter (points outside the bbox are outside the ring, so
    # skipping the filter changes nothing).
    exhaustive = points_in_ring(lons, lats, polygon.exterior)
    assert (vec == scalar).all()
    assert (vec == exhaustive).all()


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
