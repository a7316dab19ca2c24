"""Tests for repro.geo.raster."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import raster as raster_mod
from repro.geo.geometry import BBox, Polygon
from repro.geo.raster import (
    GridSpec,
    Raster,
    dilate_ellipse,
    disk_footprint,
    rasterize_polygon,
)
from repro.runtime.stats import STATS


@pytest.fixture()
def grid():
    return GridSpec(BBox(-101.0, 34.0, -98.0, 37.0), 0.1)


class TestGridSpec:
    def test_shape(self, grid):
        assert grid.shape == (30, 30)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(BBox(0, 0, 1, 1), 0.0)

    def test_rowcol_corners(self, grid):
        # NW corner cell
        r, c = grid.rowcol(-100.95, 36.95)
        assert (int(r), int(c)) == (0, 0)
        # SE corner cell
        r, c = grid.rowcol(-98.05, 34.05)
        assert (int(r), int(c)) == (29, 29)

    def test_cell_center_roundtrip(self, grid):
        rows = np.array([0, 10, 29])
        cols = np.array([0, 15, 29])
        lons, lats = grid.cell_center(rows, cols)
        r2, c2 = grid.rowcol(lons, lats)
        np.testing.assert_array_equal(r2, rows)
        np.testing.assert_array_equal(c2, cols)

    def test_inside(self, grid):
        rows = np.array([0, -1, 29, 30])
        cols = np.array([0, 0, 29, 29])
        np.testing.assert_array_equal(grid.inside(rows, cols),
                                      [True, False, True, False])

    def test_cell_area_reasonable(self, grid):
        # 0.1 deg cell at ~35.5N is roughly 10km x 11km
        area = grid.cell_area_sqm(15)
        assert 0.8e8 < area < 1.2e8

    def test_cell_areas_decrease_northward(self, grid):
        areas = grid.cell_areas_sqm()
        assert areas[0] < areas[-1]  # row 0 is the northernmost


class TestRaster:
    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            Raster(grid, np.zeros((3, 3)))

    def test_sample_inside_outside(self, grid):
        r = Raster(grid, fill=7, dtype=np.int32)
        assert r.sample(-99.5, 35.5) == 7
        assert r.sample(-200.0, 35.5) == 0

    def test_sample_outside_custom(self, grid):
        r = Raster(grid, fill=7, dtype=np.int32)
        assert r.sample(-200.0, 35.5, outside=-1) == -1

    def test_sample_vectorized(self, grid):
        r = Raster(grid)
        r.data[0, 0] = 5.0
        lons, lats = grid.cell_center(np.array([0]), np.array([0]))
        out = r.sample(np.array([lons[0], -200.0]),
                       np.array([lats[0], 0.0]))
        np.testing.assert_allclose(out, [5.0, 0.0])

    def test_class_area(self, grid):
        r = Raster(grid, fill=0, dtype=np.int8)
        r.data[:3, :] = 2
        area = r.class_area_sqm(2)
        expected = sum(grid.cell_area_sqm(i) * grid.width
                       for i in range(3))
        assert area == pytest.approx(expected)

    def test_histogram(self, grid):
        r = Raster(grid, fill=1, dtype=np.int8)
        r.data[0, :5] = 3
        h = r.histogram()
        assert h[3] == 5
        assert h[1] == grid.width * grid.height - 5

    def test_dilate_mask_grows(self, grid):
        r = Raster(grid)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[15, 15] = True
        grown = r.dilate_mask(mask, 15_000.0)
        assert grown.sum() > 1
        assert grown[15, 15]

    def test_dilate_zero_radius_is_identity_plus_center(self, grid):
        r = Raster(grid)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[5, 5] = True
        grown = r.dilate_mask(mask, 1.0)  # far below one cell
        assert grown.sum() == 1

    @pytest.mark.parametrize("min_cells", [0.0, 0.6, 1.0, 2.5])
    @pytest.mark.parametrize("radius_m", [0.0, 9_000.0, 31_000.0])
    def test_dilate_mask_equals_binary_dilation(self, grid, min_cells,
                                                radius_m):
        """The one dilation equals scipy's ``binary_dilation`` by the
        floored footprint, on random masks and on masks touching every
        grid edge."""
        from scipy import ndimage

        from repro.geo.projection import meters_per_degree

        r = Raster(grid)
        mx, my = meters_per_degree((grid.bbox.min_lat
                                    + grid.bbox.max_lat) / 2.0)
        rx = radius_m / (grid.res * mx)
        ry = radius_m / (grid.res * my)
        footprint = disk_footprint(max(rx, min_cells), max(ry, min_cells))
        rng = np.random.default_rng(int(radius_m) + int(10 * min_cells))
        edges = np.zeros(grid.shape, dtype=bool)
        edges[0, 3] = edges[-1, -4] = edges[7, 0] = edges[-8, -1] = True
        for mask in (rng.random(grid.shape) < 0.02,
                     rng.random(grid.shape) < 0.3, edges):
            got = r.dilate_mask(mask, radius_m, min_cells=min_cells)
            want = ndimage.binary_dilation(mask, structure=footprint)
            assert np.array_equal(got, want)
        assert got.sum() > edges.sum() or footprint.sum() == 1

    @pytest.mark.parametrize("rx, ry, shape", [
        (0.0, 3.0, (30, 30)),   # rx = 0 with ry > 0: a 7-cell column
        (3.0, 0.0, (30, 30)),   # ry = 0 with rx > 0: a 7-cell row
        (2.5, 1.5, (30, 30)),   # non-integer radii: outer rows empty
        (4.7, 3.2, (30, 30)),
        (2.0, 9.0, (4, 30)),    # mask shorter than the footprint
        (9.0, 9.0, (1, 12)),
        (6.5, 2.0, (30, 3)),    # and narrower than it
        (40.0, 3.0, (20, 30)),  # runs spill past both side edges
        (40.0, 3.0, (500, 800)),
    ])
    def test_dilate_ellipse_equals_binary_dilation(self, rx, ry, shape):
        """The row-run dilation equals ``binary_dilation`` by the same
        footprint on the edge cases of its row decomposition, among
        them lone pixels whose runs grow past a side edge and back."""
        from scipy import ndimage

        footprint = disk_footprint(rx, ry)
        if ry != int(ry):
            assert not footprint[0].any() and not footprint[-1].any()
        rng = np.random.default_rng(int(10 * rx + ry))
        edges = np.zeros(shape, dtype=bool)
        edges[0, 0] = edges[-1, -1] = True
        centre = np.zeros(shape, dtype=bool)
        centre[shape[0] // 2, shape[1] // 2] = True
        for mask in (rng.random(shape) < 0.001,
                     rng.random(shape) < 0.02, rng.random(shape) < 0.3,
                     edges, centre, *_lone_pixels_near_the_sides(shape),
                     np.zeros(shape, dtype=bool),
                     np.ones(shape, dtype=bool)):
            want = ndimage.binary_dilation(mask, structure=footprint)
            assert np.array_equal(dilate_ellipse(mask, rx, ry), want)

    @pytest.mark.parametrize("rx, ry, shape", [
        (40.0, 35.0, (12, 20)),     # taller and wider than the mask
        (60.5, 2.0, (9, 14)),       # runs longer than 2 * width + 1
        (1.5, 30.25, (8, 40)),      # rows past the mask's height
        (25.0, 0.0, (6, 10)),
        (0.0, 25.0, (6, 10)),
        (40.0, 3.0, (20, 30)),      # wider than the mask
        (120.0, 3.0, (50, 80)),
    ])
    def test_radii_larger_than_the_mask(self, rx, ry, shape):
        """A footprint larger than the mask dilates exactly as
        ``binary_dilation`` by the whole footprint does."""
        from scipy import ndimage

        footprint = disk_footprint(rx, ry)
        rng = np.random.default_rng(int(rx + 10 * ry))
        single = np.zeros(shape, dtype=bool)
        single[-1, 0] = True
        for mask in (rng.random(shape) < 0.001, rng.random(shape) < 0.05,
                     single, *_lone_pixels_near_the_sides(shape),
                     np.zeros(shape, dtype=bool)):
            want = ndimage.binary_dilation(mask, structure=footprint)
            assert np.array_equal(dilate_ellipse(mask, rx, ry), want)

    @pytest.mark.parametrize("rx, ry", [(0.0, 0.0), (1.0, 1.0),
                                        (2.5, 1.5), (7.3, 11.9),
                                        (3.0, 0.0), (0.0, 3.0),
                                        (30.0, 30.0)])
    def test_run_lengths_are_the_footprint_rows(self, rx, ry):
        """Each run length is the footprint row's cell count, for the
        rows a mask can feel, capped at ``2 * width + 1``."""
        footprint = disk_footprint(rx, ry)
        ny = footprint.shape[0] // 2
        for height, width in ((100, 100), (5, 4), (1, 1)):
            got = raster_mod._footprint_run_lengths(rx, ry, height, width)
            n = min(ny, height - 1)
            rows = footprint[ny - n:ny + n + 1].sum(axis=1)
            assert np.array_equal(got, np.minimum(rows, 2 * width + 1))

    def test_memory_does_not_grow_with_the_radius(self):
        """A 1,250-cell radius on a 50 x 50 mask stays small: the
        footprint's (2,501 x 2,501) offset grid is never built."""
        import tracemalloc

        mask = np.zeros((50, 50), dtype=bool)
        mask[10, 20] = True
        dilate_ellipse(mask, 1.0, 1.0)      # first call outside the trace
        tracemalloc.start()
        try:
            out = dilate_ellipse(mask, 1_250.0, 1_250.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.all()
        assert peak < 2**20, peak

    def test_copy_is_independent(self, grid):
        r = Raster(grid, fill=1.0)
        r2 = r.copy()
        r2.data[0, 0] = 99.0
        assert r.data[0, 0] == 1.0


def _lone_pixels_near_the_sides(shape):
    """One mask per lone pixel 1 and 2 columns in from each side edge,
    on the middle row."""
    height, width = shape
    for col in sorted({1, 2, width - 2, width - 3}):
        if 0 <= col < width:
            mask = np.zeros(shape, dtype=bool)
            mask[height // 2, col] = True
            yield mask


@pytest.mark.parametrize("shape", [(1, 1), (2, 9), (3, 40), (5, 7),
                                   (64, 64), (249, 579), (311, 517)])
@pytest.mark.parametrize("sigma", [0.8, 2.0, 3.7])
def test_gaussian_smooth_equals_gaussian_filter(shape, sigma):
    """``gaussian_smooth`` equals scipy's ``gaussian_filter`` byte for
    byte, on site-count-like integer grids and on random floats; the
    small shapes have axes shorter than the radius, where the
    reflection repeats."""
    from scipy import ndimage

    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    counts = rng.poisson(0.7, shape).astype(float)
    for data in (counts, rng.random(shape) * 1e3):
        want = ndimage.gaussian_filter(data, sigma=sigma)
        got = raster_mod.gaussian_smooth(data, sigma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    ints = rng.integers(0, 5, shape)
    assert raster_mod.gaussian_smooth(ints, sigma).tobytes() \
        == ndimage.gaussian_filter(ints.astype(float), sigma).tobytes()


def _sample_at_centers(raster: Raster, grid: GridSpec, outside=None):
    """Reference: point-sample every cell center of a full meshgrid."""
    col_mesh, row_mesh = np.meshgrid(np.arange(grid.width),
                                     np.arange(grid.height))
    lons, lats = grid.cell_center(row_mesh.ravel(), col_mesh.ravel())
    return raster.sample(lons, lats, outside=outside).reshape(grid.shape)


@st.composite
def grid_specs(draw):
    """A grid whose extent is a whole number of cells of its res."""
    res = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25, 0.3]))
    min_lon = draw(st.floats(min_value=-104.0, max_value=-98.0))
    min_lat = draw(st.floats(min_value=32.0, max_value=38.0))
    width = draw(st.integers(min_value=1, max_value=40))
    height = draw(st.integers(min_value=1, max_value=40))
    return GridSpec(BBox(min_lon, min_lat, min_lon + width * res,
                         min_lat + height * res), res)


class TestSampleGrid:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(source=grid_specs(), target=grid_specs(),
           as_int=st.booleans(),
           outside=st.sampled_from([None, -1, 7, np.inf]),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_equals_point_sampling_at_centers(self, source, target,
                                              as_int, outside, seed):
        rng = np.random.default_rng(seed)
        if as_int:
            data = rng.integers(-5, 6, size=source.shape).astype(np.int8)
            if outside is np.inf:
                outside = 9
        else:
            data = rng.standard_normal(source.shape)
        raster = Raster(source, data)
        got = raster.sample_grid(target, outside=outside)
        want = _sample_at_centers(raster, target, outside=outside)
        assert got.dtype == want.dtype and got.shape == target.shape
        assert got.tobytes() == want.tobytes()

    def test_partial_overlap_and_disjoint(self, grid):
        raster = Raster(grid, np.arange(900, dtype=float).reshape(30, 30))
        shifted = GridSpec(BBox(-102.0, 33.55, -99.5, 35.05), 0.05)
        got = raster.sample_grid(shifted, outside=-1.0)
        assert (got == -1.0).any() and (got >= 0).any()
        assert got.tobytes() == \
            _sample_at_centers(raster, shifted, -1.0).tobytes()
        far = GridSpec(BBox(10.0, 10.0, 11.0, 11.0), 0.1)
        assert (raster.sample_grid(far) == 0.0).all()

    def test_counts_one_sample_per_cell(self, grid):
        raster = Raster(grid, np.ones(grid.shape))
        target = GridSpec(BBox(-100.5, 34.5, -99.0, 36.0), 0.02)
        before = STATS.get("raster.samples")
        raster.sample_grid(target)
        assert STATS.get("raster.samples") - before == 75 * 75

    def test_axes_match_cell_centers(self, grid):
        lons, lats = grid.axes()
        assert lons.shape == (grid.width,) and lats.shape == (grid.height,)
        col_mesh, row_mesh = np.meshgrid(np.arange(grid.width),
                                         np.arange(grid.height))
        mlons, mlats = grid.cell_center(row_mesh, col_mesh)
        assert np.broadcast_to(lons[None, :], grid.shape).tobytes() \
            == mlons.tobytes()
        assert np.broadcast_to(lats[:, None], grid.shape).tobytes() \
            == mlats.tobytes()


class TestBoxMask:
    """``box_mask`` sampled with ``outside=True`` is the validation's
    prefilter: it may keep extra points, never drop a boxed one."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid=grid_specs(), data=st.data())
    def test_prefilter_keeps_every_point_a_box_contains(self, grid, data):
        b = grid.bbox
        # Boxes anywhere from one grid extent left/below the grid to one
        # right/above it: inside, straddling an edge or wholly off it.
        lon = st.floats(b.min_lon - b.width, b.max_lon + b.width)
        lat = st.floats(b.min_lat - b.height, b.max_lat + b.height)
        size = st.sampled_from([0.0, grid.res / 3]) \
            | st.floats(0.0, max(b.width, b.height))
        boxes = []
        for _ in range(data.draw(st.integers(1, 5))):
            x, y = data.draw(lon), data.draw(lat)
            boxes.append(BBox(x, y, x + data.draw(size),
                              y + data.draw(size)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # Each box's corners and points inside it, plus points scattered
        # over and around the grid (many of them off it).
        lons, lats = [], []
        for box in boxes:
            lons += [box.min_lon, box.max_lon, box.min_lon, box.max_lon]
            lats += [box.min_lat, box.min_lat, box.max_lat, box.max_lat]
            u, v = rng.random(20), rng.random(20)
            lons += list(box.min_lon + u * box.width)
            lats += list(box.min_lat + v * box.height)
        lons += list(rng.uniform(b.min_lon - b.width,
                                 b.max_lon + b.width, 60))
        lats += list(rng.uniform(b.min_lat - b.height,
                                 b.max_lat + b.height, 60))
        lons, lats = np.array(lons), np.array(lats)

        mask = grid.box_mask(boxes)
        kept = Raster(grid, mask).sample(lons, lats, outside=True)
        held = np.zeros(len(lons), dtype=bool)
        for box in boxes:
            held |= box.contains_many(lons, lats)
        assert held.any()
        assert not (held & ~kept).any()
        # ...and marks no cell away from every box.
        rows, cols = np.nonzero(mask)
        west = b.min_lon + cols * grid.res
        north = b.max_lat - rows * grid.res
        near = np.zeros(len(rows), dtype=bool)
        for box in boxes:
            grown = box.expand(grid.res * 1e-6)
            near |= ((west <= grown.max_lon)
                     & (west + grid.res >= grown.min_lon)
                     & (north >= grown.min_lat)
                     & (north - grid.res <= grown.max_lat))
        assert near.all()

    def test_marks_clipped_corner_rectangles(self, grid):
        b = grid.bbox
        above = BBox(b.min_lon, b.max_lat + 0.5, b.max_lon, b.max_lat + 1)
        left = BBox(b.min_lon - 2, b.min_lat, b.min_lon - 1, b.max_lat)
        assert not grid.box_mask([above, left]).any()
        inner = BBox(-100.55, 35.05, -100.25, 35.15)
        rows, cols = np.nonzero(grid.box_mask([inner]))
        assert (set(rows.tolist()), set(cols.tolist())) \
            == ({18, 19}, {4, 5, 6, 7})


class TestDiskFootprint:
    def test_center_always_true(self):
        assert disk_footprint(0.0, 0.0)[0, 0]

    def test_radius_one(self):
        fp = disk_footprint(1.0, 1.0)
        assert fp.shape == (3, 3)
        assert fp[1, 1] and fp[0, 1] and fp[1, 0]
        assert not fp[0, 0]  # corner is sqrt(2) > 1 away

    def test_anisotropic(self):
        fp = disk_footprint(3.0, 1.0)
        assert fp.shape == (3, 7)

    def test_zero_radius_keeps_the_other_axis(self):
        """A zero radius admits only offset 0 on its own axis, so the
        footprint is a row or a column as long as the other radius
        allows (literal arrays: a footprint-based oracle would share
        the expression under test)."""
        row = np.array([[1, 1, 1, 1, 1, 1, 1]], dtype=bool)
        assert np.array_equal(disk_footprint(3.0, 0.0), row)
        assert np.array_equal(disk_footprint(2.5, 0.0),
                              np.array([[0, 1, 1, 1, 1, 1, 0]], dtype=bool))
        assert np.array_equal(disk_footprint(0.0, 2.0),
                              np.ones((5, 1), dtype=bool))
        assert np.array_equal(disk_footprint(0.0, 0.0),
                              np.ones((1, 1), dtype=bool))
        lengths = raster_mod._footprint_run_lengths
        assert lengths(3.0, 0.0, 30, 30).tolist() == [7]
        assert lengths(0.0, 2.0, 30, 30).tolist() == [1, 1, 1, 1, 1]
        assert lengths(25.0, 0.0, 6, 10).tolist() == [21]

    @pytest.mark.parametrize("rx, ry, structure", [
        (3.0, 0.0, np.ones((1, 7), dtype=bool)),
        (0.0, 2.0, np.ones((5, 1), dtype=bool)),
    ])
    def test_zero_radius_dilation(self, rx, ry, structure):
        """``dilate_ellipse`` with one zero radius dilates by a literal
        row or column structure."""
        from scipy import ndimage

        rng = np.random.default_rng(7)
        for mask in (rng.random((30, 40)) < 0.02,
                     rng.random((30, 40)) < 0.3):
            want = ndimage.binary_dilation(mask, structure=structure)
            assert np.array_equal(dilate_ellipse(mask, rx, ry), want)


class TestRasterize:
    def test_square_cell_count(self, grid):
        p = Polygon([(-100.0, 35.0), (-99.0, 35.0), (-99.0, 36.0),
                     (-100.0, 36.0)])
        mask = rasterize_polygon(grid, p)
        assert mask.sum() == 100  # 10x10 cells of 0.1 deg

    def test_mask_matches_containment(self, grid):
        p = Polygon([(-100.3, 34.6), (-99.1, 35.2), (-99.5, 36.4),
                     (-100.6, 36.0)])
        mask = rasterize_polygon(grid, p)
        rows, cols = np.nonzero(mask)
        lons, lats = grid.cell_center(rows, cols)
        inside = p.contains_many(lons, lats)
        assert inside.all()

    def test_hole_respected(self, grid):
        hole = [(-99.7, 35.3), (-99.3, 35.3), (-99.3, 35.7),
                (-99.7, 35.7)]
        p = Polygon([(-100.0, 35.0), (-99.0, 35.0), (-99.0, 36.0),
                     (-100.0, 36.0)], holes=[hole])
        mask = rasterize_polygon(grid, p)
        assert mask.sum() == 100 - 16

    def test_polygon_outside_grid(self, grid):
        p = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert rasterize_polygon(grid, p).sum() == 0

    def test_partial_overlap_clipped(self, grid):
        p = Polygon([(-101.5, 34.5), (-100.5, 34.5), (-100.5, 35.5),
                     (-101.5, 35.5)])
        mask = rasterize_polygon(grid, p)
        assert 0 < mask.sum() < 100

    @given(st.floats(min_value=-102.5, max_value=-96.5),
           st.floats(min_value=32.5, max_value=38.5),
           st.lists(st.floats(min_value=0.05, max_value=2.0),
                    min_size=3, max_size=30),
           st.lists(st.floats(min_value=0.1, max_value=0.9), max_size=2))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_equals_the_scanline_loop(self, cx, cy, radii, shrink):
        """The cell-centre rule marks the cells the scanline loop marked,
        for star polygons with holes and partly or wholly off the
        grid."""
        theta = np.linspace(0, 2 * np.pi, len(radii), endpoint=False)

        def ring(k):
            r = k * np.asarray(radii)
            return np.column_stack([cx + r * np.cos(theta),
                                    cy + r * np.sin(theta)])

        p = Polygon(ring(1.0), holes=[ring(k) for k in shrink])
        for res in (0.1, 0.03):
            grid = GridSpec(BBox(-101.0, 34.0, -98.0, 37.0), res)
            assert np.array_equal(rasterize_polygon(grid, p),
                                  _scanline_rasterize(grid, p))

    @pytest.mark.parametrize("ring", [
        [(-100.0, 35.0), (-99.0, 35.0), (-99.0, 36.0), (-100.0, 36.0)],
        [(-101.5, 34.5), (-100.5, 34.5), (-100.5, 35.5), (-101.5, 35.5)],
        [(-100.05, 34.95), (-98.95, 34.95), (-98.95, 36.05)],
        [(0, 0), (1, 0), (1, 1), (0, 1)],
    ])
    def test_grid_aligned_rings_equal_the_scanline_loop(self, grid, ring):
        hole = [(-99.7, 35.3), (-99.3, 35.3), (-99.3, 35.7), (-99.7, 35.7)]
        for p in (Polygon(ring), Polygon(ring, holes=[hole])):
            assert np.array_equal(rasterize_polygon(grid, p),
                                  _scanline_rasterize(grid, p))


def _scanline_rasterize(grid, polygon):
    """Oracle: the scanline loop ``rasterize_polygon`` ran before it
    applied the cell-centre rule through ``contains_many``, kept
    verbatim.  Per row, it sorts the crossing abscissae of the exterior
    and of each hole and counts those at or left of each centre."""
    mask = np.zeros(grid.shape, dtype=bool)
    bbox = polygon.bbox
    row_min, col_min = grid.rowcol(bbox.min_lon, bbox.max_lat)
    row_max, col_max = grid.rowcol(bbox.max_lon, bbox.min_lat)
    row_min = max(int(row_min), 0)
    col_min = max(int(col_min), 0)
    row_max = min(int(row_max), grid.height - 1)
    col_max = min(int(col_max), grid.width - 1)
    if row_min > row_max or col_min > col_max:
        return mask

    # Edge arrays are row-invariant; build them once, not per scanline.
    edge_arrays = []
    for ring in [polygon.exterior, *polygon.holes]:
        xs = ring[:, 0]
        ys = ring[:, 1]
        edge_arrays.append((xs, ys, np.roll(xs, -1), np.roll(ys, -1)))
    # Cell-center longitudes depend only on the column (separable grid),
    # so the scanline x-axis is shared by every row.
    lons = grid.axes()[0][col_min:col_max + 1]

    for row in range(row_min, row_max + 1):
        _, lat = grid.cell_center(row, 0)
        lat = float(lat)
        crossings: list[float] = []
        hole_crossings: list[list[float]] = []
        for k, (xs, ys, x_next, y_next) in enumerate(edge_arrays):
            cond = (ys > lat) != (y_next > lat)
            if not cond.any():
                if k > 0:
                    hole_crossings.append([])
                continue
            xc = xs[cond] + (x_next[cond] - xs[cond]) * \
                (lat - ys[cond]) / (y_next[cond] - ys[cond])
            if k == 0:
                crossings = sorted(xc.tolist())
            else:
                hole_crossings.append(sorted(xc.tolist()))
        if not crossings:
            continue
        inside = _inside_from_crossings(lons, crossings)
        for hc in hole_crossings:
            if hc:
                inside &= ~_inside_from_crossings(lons, hc)
        mask[row, col_min:col_max + 1] = inside
    return mask


def _inside_from_crossings(xs: np.ndarray, crossings: list[float]) \
        -> np.ndarray:
    """Even-odd test given sorted scanline crossing x-coordinates."""
    counts = np.searchsorted(np.asarray(crossings), xs, side="right")
    return (counts % 2) == 1


def test_tiled_sampling_counter_parity(universe, monkeypatch):
    cells = universe.cells
    whp = universe.whp

    before = STATS.snapshot()
    untiled = whp.classify(cells.lons, cells.lats)
    base = STATS.delta_since(before)["counters"]

    monkeypatch.setattr(raster_mod, "SAMPLE_TILE_POINTS", 1_024)
    before = STATS.snapshot()
    tiled = whp.classify(cells.lons, cells.lats)
    small = STATS.delta_since(before)["counters"]

    assert (tiled == untiled).all()
    # identical sample totals, strictly more tiles
    assert small["raster.samples"] == base["raster.samples"]
    assert small["raster.samples"] >= len(cells)
    assert small["raster.tiles"] > base["raster.tiles"]
    expected_tiles_per_pass = -(-len(cells) // 1_024)
    assert small["raster.tiles"] % expected_tiles_per_pass == 0
