"""Affine rasters over lon/lat space.

The Wildfire Hazard Potential product, the population surface, and the
raster-space buffering in §3.8 of the paper all live on regular lon/lat
grids.  :class:`Raster` wraps a numpy array with an affine geotransform
and provides the operations the analyses need: vectorized point sampling,
polygon rasterization (the cell-centre rule), per-class statistics, and
morphological dilation for the "extend very-high WHP by half a mile"
experiment.

Grid convention: row 0 is the *northernmost* row (image convention, as in
GeoTIFF).  ``transform`` maps (col, row) pixel *centers* to lon/lat.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..runtime.stats import STATS
from .geometry import BBox, Polygon
from .projection import meters_per_degree

__all__ = ["GridSpec", "Raster", "rasterize_polygon", "disk_footprint",
           "dilate_ellipse", "gaussian_smooth"]

# Point-sampling tile size.  Bounding the per-tile working set keeps the
# row/col/mask temporaries (5 int64/bool arrays per tile) out of the
# multi-hundred-MB range at paper scale; each element is processed by the
# exact same arithmetic regardless of tile boundaries.
SAMPLE_TILE_POINTS = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a regular lon/lat grid.

    ``res`` is the cell size in degrees (square cells in degree space).
    """

    bbox: BBox
    res: float

    def __post_init__(self):
        if self.res <= 0:
            raise ValueError("grid resolution must be positive")

    @property
    def width(self) -> int:
        return max(1, int(round(self.bbox.width / self.res)))

    @property
    def height(self) -> int:
        return max(1, int(round(self.bbox.height / self.res)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def rowcol(self, lons, lats):
        """Map lon/lat (arrays) to (row, col) indices; may be out of range."""
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        cols = np.floor((lons - self.bbox.min_lon) / self.res).astype(np.int64)
        rows = np.floor((self.bbox.max_lat - lats) / self.res).astype(np.int64)
        return rows, cols

    def cell_center(self, rows, cols):
        """Lon/lat of cell centers for (row, col) arrays."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        lons = self.bbox.min_lon + (cols + 0.5) * self.res
        lats = self.bbox.max_lat - (rows + 0.5) * self.res
        return lons, lats

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center lons per column and lats per row.

        The grid is separable: the center of cell (r, c) is
        ``(lons[c], lats[r])``, bit-identical to :meth:`cell_center`
        at that cell, so per-cell fields can be built from W + H
        values instead of a W * H meshgrid.
        """
        lons, _ = self.cell_center(0, np.arange(self.width))
        _, lats = self.cell_center(np.arange(self.height), 0)
        return lons, lats

    def window(self, bbox: BBox) -> tuple[slice, slice] | None:
        """Row and column slices of the cells from the one holding
        ``bbox``'s north-west corner to the one holding its south-east
        corner, clipped to the grid; None when no cell is left."""
        r0, c0 = self.rowcol(bbox.min_lon, bbox.max_lat)
        r1, c1 = self.rowcol(bbox.max_lon, bbox.min_lat)
        r0, c0 = max(int(r0), 0), max(int(c0), 0)
        r1 = min(int(r1), self.height - 1)
        c1 = min(int(c1), self.width - 1)
        if r0 > r1 or c0 > c1:
            return None
        return slice(r0, r1 + 1), slice(c0, c1 + 1)

    def cells_inside(self, polygon) -> tuple | None:
        """``(window, inside)``: the :meth:`window` of the polygon's
        bbox, and whether the polygon holds each of its cell centres
        (``contains_many``, holes respected) as a boolean array of the
        window's shape; None when the window is empty.  A cell outside
        the window has its centre outside the bbox."""
        window = self.window(polygon.bbox)
        if window is None:
            return None
        rows, cols = window
        lons, lats = self.cell_center(np.arange(rows.start, rows.stop),
                                      np.arange(cols.start, cols.stop))
        return window, polygon.contains_many(
            lons[None, :].repeat(len(lats), axis=0),
            lats[:, None].repeat(len(lons), axis=1))

    def box_mask(self, boxes) -> np.ndarray:
        """Boolean grid mask of every cell some box touches.

        Each box marks the rectangle between the cells of its corners,
        clipped to the grid.  :meth:`rowcol` is monotone in each
        coordinate (a subtraction, a positive division and a floor), so
        every on-grid point a box contains falls in that rectangle:
        sampling the mask with ``outside=True`` keeps every point that
        any box contains.
        """
        mask = np.zeros(self.shape, dtype=bool)
        for box in boxes:
            window = self.window(box)
            if window is not None:
                mask[window] = True
        return mask

    def inside(self, rows, cols) -> np.ndarray:
        return ((rows >= 0) & (rows < self.height)
                & (cols >= 0) & (cols < self.width))

    def cell_area_sqm(self, row: int) -> float:
        """True area of a cell in the given row (depends on latitude)."""
        _, lat = self.cell_center(row, 0)
        mx, my = meters_per_degree(float(lat))
        return self.res * mx * self.res * my

    def cell_areas_sqm(self) -> np.ndarray:
        """(height,) array of per-row cell areas in square meters."""
        _, lats = self.axes()
        mx = np.pi * 6_371_007.2 / 180.0 * np.cos(np.radians(lats))
        my = np.pi * 6_371_007.2 / 180.0
        return self.res * mx * self.res * my


class Raster:
    """A 2-D data grid with lon/lat georeferencing."""

    def __init__(self, grid: GridSpec, data: np.ndarray | None = None,
                 dtype=np.float64, fill=0):
        self.grid = grid
        if data is None:
            data = np.full(grid.shape, fill, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.shape != grid.shape:
                raise ValueError(
                    f"data shape {data.shape} != grid shape {grid.shape}")
        self.data = data

    def __repr__(self) -> str:
        return (f"Raster({self.grid.height}x{self.grid.width}, "
                f"res={self.grid.res}, dtype={self.data.dtype})")

    def copy(self) -> "Raster":
        return Raster(self.grid, self.data.copy())

    def content_token(self) -> bytes:
        """Digest of the grid geometry and cell payload.

        Used by the runtime result cache to key joins by raster
        *content*, so any change to resolution, extent or values maps to
        a different cache entry.
        """
        h = hashlib.sha256()
        b = self.grid.bbox
        h.update(repr((b.min_lon, b.min_lat, b.max_lon, b.max_lat,
                       self.grid.res)).encode())
        h.update(str(self.data.dtype).encode())
        h.update(self.data.tobytes())
        return h.digest()

    def sample(self, lons, lats, outside=None):
        """Sample raster values at lon/lat points (vectorized).

        Points outside the grid get ``outside`` (default: the raster's
        dtype zero).
        """
        lons = np.asarray(lons, dtype=float)
        scalar = lons.ndim == 0
        lons = np.atleast_1d(lons)
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        if outside is None:
            outside = np.zeros(1, dtype=self.data.dtype)[0]
        out = np.full(lons.shape, outside, dtype=self.data.dtype)
        flat_lons = lons.reshape(-1)
        flat_lats = lats.reshape(-1)
        flat_out = out.reshape(-1)
        n = flat_lons.size
        for t0 in range(0, n, SAMPLE_TILE_POINTS):
            t1 = min(n, t0 + SAMPLE_TILE_POINTS)
            rows, cols = self.grid.rowcol(flat_lons[t0:t1],
                                          flat_lats[t0:t1])
            ok = self.grid.inside(rows, cols)
            tile = flat_out[t0:t1]
            tile[ok] = self.data[rows[ok], cols[ok]]
            STATS.count("raster.tiles")
        STATS.count("raster.samples", lons.size)
        if scalar:
            return out[0]
        return out

    def sample_grid(self, grid: GridSpec, outside=None) -> np.ndarray:
        """Sample this raster at every cell center of ``grid``.

        Equals ``sample`` at the meshgrid of ``grid``'s cell centers,
        reshaped to ``grid.shape``, bit for bit: a center's source row
        depends only on its latitude and its source column only on its
        longitude, so one :meth:`GridSpec.rowcol` per axis and a row
        take then a column take replace the per-point index arithmetic.
        Returns a new array.  Counts ``grid.size`` samples, as
        ``sample`` would.
        """
        rows, cols = self.grid.rowcol(*grid.axes())
        in_rows = (rows >= 0) & (rows < self.grid.height)
        in_cols = (cols >= 0) & (cols < self.grid.width)
        block = self.data.take(rows[in_rows], axis=0) \
            .take(cols[in_cols], axis=1)
        STATS.count("raster.samples", grid.height * grid.width)
        if in_rows.all() and in_cols.all():
            return block
        if outside is None:
            outside = np.zeros(1, dtype=self.data.dtype)[0]
        out = np.full(grid.shape, outside, dtype=self.data.dtype)
        out[np.ix_(in_rows, in_cols)] = block
        return out

    def class_area_sqm(self, value) -> float:
        """True area covered by cells equal to ``value``."""
        mask = self.data == value
        per_row = mask.sum(axis=1).astype(float)
        return float((per_row * self.grid.cell_areas_sqm()).sum())

    def dilate_mask(self, mask: np.ndarray, radius_m: float,
                    min_cells: float = 0.0) -> np.ndarray:
        """Morphologically dilate a boolean mask by a metric radius.

        This implements the paper's §3.8 "extend the very-high WHP
        perimeters by half a mile" on the raster itself: every cell within
        ``radius_m`` of a True cell becomes True.  The structuring element
        is an ellipse in grid space accounting for the lon/lat anisotropy
        at the grid's central latitude.  ``min_cells`` floors both of its
        radii, in cells, for callers whose radius must span some cells
        however coarse the grid.
        """
        if mask.shape != self.grid.shape:
            raise ValueError("mask shape mismatch")
        lat_mid = (self.grid.bbox.min_lat + self.grid.bbox.max_lat) / 2.0
        mx, my = meters_per_degree(lat_mid)
        rx = max(radius_m / (self.grid.res * mx), min_cells)  # columns
        ry = max(radius_m / (self.grid.res * my), min_cells)  # rows
        return dilate_ellipse(mask, rx, ry)

    def histogram(self) -> dict:
        """Value -> cell count for integer rasters."""
        values, counts = np.unique(self.data, return_counts=True)
        return {v.item(): int(c) for v, c in zip(values, counts)}


def _ellipse_inside(xs, ys, rx: float, ry: float) -> np.ndarray:
    """Whether integer offsets ``(xs, ys)`` lie in the ellipse with
    radii ``(rx, ry)`` >= 0; a zero radius admits only offset 0 on its
    axis."""
    def term(offsets, radius):
        if radius > 0:
            return (offsets / radius) ** 2
        return np.where(offsets != 0, np.inf, 0.0)

    with np.errstate(over="ignore"):
        return term(xs, rx) + term(ys, ry) <= 1.0


def disk_footprint(rx: float, ry: float) -> np.ndarray:
    """Boolean elliptical structuring element with radii (cols, rows)."""
    rx = max(float(rx), 0.0)
    ry = max(float(ry), 0.0)
    nx = int(np.ceil(rx))
    ny = int(np.ceil(ry))
    ys, xs = np.mgrid[-ny:ny + 1, -nx:nx + 1]
    footprint = _ellipse_inside(xs, ys, rx, ry)
    footprint[ny, nx] = True
    return footprint


def _footprint_run_lengths(rx: float, ry: float, height: int,
                          width: int) -> np.ndarray:
    """Row lengths of ``disk_footprint(rx, ry)`` as a ``height`` x
    ``width`` mask feels them.

    Returns the length of the run of footprint row ``dy`` for ``dy =
    -n..n``, ``n = min(ceil(ry), height - 1)``: rows farther out shift
    past the mask.  Each footprint row is one run centred on its middle
    column, because the ellipse expression grows with ``|x|``, so a
    row's length is ``2k - 1`` for the ``k`` offsets ``x = 0, 1, ...``
    inside it, found with the expression :func:`disk_footprint`
    evaluates.  Only ``x <= width`` is evaluated: a run of ``2 *
    width + 1`` already spans every column, so longer runs are capped
    there.  Memory grows with the mask, never with the radius.
    """
    rx = max(float(rx), 0.0)
    ry = max(float(ry), 0.0)
    ny = min(int(np.ceil(ry)), max(height - 1, 0))
    xs = np.arange(min(int(np.ceil(rx)), width) + 1)
    half = np.array([np.count_nonzero(_ellipse_inside(xs, dy, rx, ry))
                     for dy in range(ny + 1)])
    half[0] = max(half[0], 1)       # the footprint's centre is always set
    lengths = np.where(half > 0, 2 * half - 1, 0)
    return np.concatenate((lengths[:0:-1], lengths))


def dilate_ellipse(mask: np.ndarray, rx: float, ry: float) -> np.ndarray:
    """Binary dilation of ``mask`` by ``disk_footprint(rx, ry)``.

    Equals ``ndimage.binary_dilation(mask, structure=footprint)`` (zero
    border).  Each footprint row is one run centred on the footprint's
    middle column, so the dilation is the OR, over row offsets ``dy``,
    of the mask run-dilated along its rows by that row's length and
    shifted by ``dy``.  The run lengths come from
    :func:`_footprint_run_lengths`, so the footprint itself is never
    built.

    Runs are grown in increasing length: a run of length ``n`` OR-ed
    with itself shifted ``d <= n`` columns each way is the run of
    length ``n + 2d``, two boolean ORs per step.  The growing runs
    spill past the mask's side edges, and a later step shifts that
    spill back in, so they are grown on a copy of the mask zero-padded
    by half the longest run: no run shorter than the longest reaches
    past the padding, so the zero fill at the copy's edges is exact.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    lengths = _footprint_run_lengths(rx, ry, height, width)
    ny = len(lengths) // 2
    pad = int(lengths.max()) // 2
    grown = np.zeros((height, width + 2 * pad), dtype=bool)
    grown[:, pad:pad + width] = mask
    length = 1
    out = np.zeros(mask.shape, dtype=bool)
    for target in np.unique(lengths[lengths > 0]).tolist():
        while length < target:
            d = min(length, (target - length) // 2)
            wider = grown.copy()
            wider[:, d:] |= grown[:, :-d]
            wider[:, :-d] |= grown[:, d:]
            grown = wider
            length += 2 * d
        run = grown[:, pad:pad + width]
        for dy in np.flatnonzero(lengths == target) - ny:
            if dy >= 0:
                out[dy:] |= run[:height - dy]
            else:
                out[:dy] |= run[-dy:]
    return out


def gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(data, sigma)`` in NumPy, bit for bit.

    The same kernel (``exp(-0.5 / sigma**2 * x**2)`` over ``|x| <=
    int(4 * sigma + 0.5)``, normalised by its sum), the same border
    (scipy's ``reflect`` is NumPy's ``symmetric`` padding, repeated
    when an axis is shorter than the radius) and the same float order
    as scipy's symmetric-kernel correlation: the centre tap first, then
    ``(left + right) * weight`` for each tap pair from the outermost
    inward, along axis 0 and then axis 1.  Returns a new float64 array.
    """
    out = np.asarray(data, dtype=np.float64)
    sigma = float(sigma)
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    for axis in range(out.ndim):
        widths = [(0, 0)] * out.ndim
        widths[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(out, widths, mode="symmetric"),
                             axis, 0)
        n = out.shape[axis]
        acc = padded[radius:radius + n] * weights[radius]
        for k in range(radius, 0, -1):
            acc += (padded[radius - k:radius - k + n]
                    + padded[radius + k:radius + k + n]) * weights[radius - k]
        out = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(out)


def rasterize_polygon(grid: GridSpec, polygon: Polygon) -> np.ndarray:
    """Rasterize a polygon onto a grid.

    Returns a boolean mask over ``grid.shape``; a cell is marked when its
    center is inside the polygon (:meth:`GridSpec.cells_inside`).  Holes
    are respected.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    found = grid.cells_inside(polygon)
    if found is not None:
        window, inside = found
        mask[window] = inside
    return mask
