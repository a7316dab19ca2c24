"""Low-level geometric predicates.

These are the inner loops of the spatial-join engine.  Every vectorized
point-in-polygon test runs one crossing-number kernel,
:func:`_ring_parity`, over an edge table of one or more rings built by
:func:`_ring_edges`: ``Polygon.contains_many`` over its exterior and
holes, :func:`points_in_ring` over one ring, the grid index's batched
ring join over a whole task's perimeters, and the raster's cell-centre
rule through ``contains_many``.  Beside it stand the scalar
:func:`point_in_ring`, which counts boundary points as inside, the
per-edge loop :func:`points_in_ring_serial`, kept as the differential
oracle, and segment intersection.

All functions operate on plain coordinates; the coordinate system is
whichever the caller uses consistently (lon/lat degrees everywhere in this
package — point-in-polygon is affine-invariant so degrees are fine).
A ring is an (N, 2) array-like; a trailing vertex within ``np.allclose``
of the first is dropped when a ring is read.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "point_in_ring",
    "points_in_ring",
    "points_in_ring_serial",
    "on_segment",
    "segments_intersect",
    "ring_area_signed",
    "is_ccw",
    "ring_self_intersects",
]

# Closure-trim tolerances, chosen to reproduce np.allclose defaults:
# |first - last| <= atol + rtol * |last|, per coordinate.
_CLOSE_RTOL = 1.0e-5
_CLOSE_ATOL = 1.0e-8

#: (edge, point) pairs per tile of the crossing-number kernel, which
#: bounds its 2-D temporaries, and candidates per block of the grid
#: index's batched ring join.
PIP_POINT_BLOCK = 65_536


def _coords_close(ax: float, ay: float, bx: float, by: float) -> bool:
    """Scalar equivalent of ``np.allclose([ax, ay], [bx, by])``."""
    return (abs(ax - bx) <= _CLOSE_ATOL + _CLOSE_RTOL * abs(bx)
            and abs(ay - by) <= _CLOSE_ATOL + _CLOSE_RTOL * abs(by))


def _ring_coords(ring) -> np.ndarray:
    """An (N, 2) ring array-like as a float array; raises otherwise."""
    arr = np.asarray(ring, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("ring must be an (N, 2) array of coordinates")
    return arr


def _validated_ring(ring) -> np.ndarray:
    """Validate an (N, 2) ring array-like; trim a closing vertex."""
    arr = _ring_coords(ring)
    if len(arr) >= 2 and _coords_close(arr[0, 0], arr[0, 1],
                                       arr[-1, 0], arr[-1, 1]):
        arr = arr[:-1]
    if len(arr) < 3:
        raise ValueError("ring needs at least 3 distinct vertices")
    return arr


def _ring_arrays(ring) -> tuple[np.ndarray, np.ndarray]:
    """Return (xs, ys) for a ring given as an (N, 2) array-like.

    A trailing vertex equal to the first is tolerated but not required.
    """
    arr = _validated_ring(ring)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def point_in_ring(x: float, y: float, ring) -> bool:
    """Crossing-number point-in-ring test for a single point.

    Points exactly on an edge are treated as inside (a transceiver on a
    fire-perimeter boundary counts as at risk).
    """
    xs, ys = _ring_arrays(ring)
    n = len(xs)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi, xj, yj = xs[i], ys[i], xs[j], ys[j]
        if on_segment(x, y, xi, yi, xj, yj):
            return True
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _ring_edges(coords: np.ndarray, offsets: np.ndarray):
    """``(first, n_edges, xs, ys, x_next, y_next)`` of concatenated rings.

    Ring ``r`` is ``coords[offsets[r]:offsets[r + 1]]``.  A last vertex
    within ``np.allclose`` of the ring's first (``_coords_close``'s
    expression) is dropped, and a ring left with fewer than 3 edges
    raises.  Edge ``k`` of ring ``r`` runs from vertex ``first[r] + k``
    to its ``x_next``/``y_next``, which wrap to the ring's first vertex
    after its last kept one.
    """
    xs = np.ascontiguousarray(coords[:, 0])
    ys = np.ascontiguousarray(coords[:, 1])
    first = offsets[:-1]
    n_edges = offsets[1:] - first
    two = np.flatnonzero(n_edges >= 2)
    a, b = first[two], first[two] + n_edges[two] - 1
    closed = ((np.abs(xs[a] - xs[b])
               <= _CLOSE_ATOL + _CLOSE_RTOL * np.abs(xs[b]))
              & (np.abs(ys[a] - ys[b])
                 <= _CLOSE_ATOL + _CLOSE_RTOL * np.abs(ys[b])))
    n_edges[two[closed]] -= 1
    if (n_edges < 3).any():
        raise ValueError("ring needs at least 3 distinct vertices")
    nxt = np.minimum(np.arange(1, len(xs) + 1), len(xs) - 1)
    nxt[first + n_edges - 1] = first
    return first, n_edges, xs, ys, xs[nxt], ys[nxt]


def _ring_parity(px, py, ring, first, n_edges, xs, ys, x_next, y_next) \
        -> np.ndarray:
    """Crossing-number test of each point over the edges of its ring.

    ``ring`` is each point's ring number in the ``_ring_edges`` table
    that follows it, or one number for all the points.  The straddle
    condition ``(y1 > py) != (y2 > py)`` is taken over tiles of at most
    ``PIP_POINT_BLOCK`` (edge, point) pairs, edge rows by point columns,
    and the crossing abscissa ``x_cross = (x2 - x1) * (py - y1) / (y2 -
    y1) + x1`` with its test ``px < x_cross`` only for the pairs that
    straddle.  A horizontal edge never straddles, so its division never
    runs, and a NaN coordinate straddles nothing.  Parity is a count
    mod 2, so the order of the pairs does not matter.
    """
    start, count = first[ring], n_edges[ring]
    crossings = np.zeros(len(px), dtype=np.int64)
    shortest, longest = (int(count.min()), int(count.max())) if len(px) \
        else (0, 0)
    e0 = 0
    while e0 < longest:
        # The points whose ring has an edge e0: all of them below the
        # shortest ring.
        live = None if e0 < shortest else np.flatnonzero(count > e0)
        if live is None:
            lx, ly, ls, lc = px, py, start, count
        else:
            lx, ly, ls, lc = px[live], py[live], start[live], count[live]
        width = min(max(1, PIP_POINT_BLOCK // len(lx)), longest - e0)
        j = np.arange(e0, e0 + width)[:, None]
        edge = j + ls
        # Past a ring's last edge, a tile row reads a clamped stand-in
        # edge whose pairs are masked out.
        ragged = e0 + width > shortest
        if ragged:
            edge = np.minimum(edge, len(xs) - 1)
        straddles = (ys[edge] > ly) != (y_next[edge] > ly)
        if ragged:
            straddles &= j < lc
        row, point = np.divmod(np.flatnonzero(straddles), len(lx))
        e = e0 + row + (ls[point] if np.ndim(ls) else ls)
        x1, y1, y = xs[e], ys[e], ly[point]
        x_cross = (x_next[e] - x1) * (y - y1) / (y_next[e] - y1) + x1
        point = point[lx[point] < x_cross]
        crossings += np.bincount(point if live is None else live[point],
                                 minlength=len(px))
        e0 += width
    return (crossings & 1).astype(bool)


def points_in_ring(xs, ys, ring) -> np.ndarray:
    """Vectorized crossing-number test: :func:`_ring_parity` over one
    ring.

    Bit-identical to the per-edge loop :func:`points_in_ring_serial`;
    the scale-stratified differential tier enforces it.

    Parameters
    ----------
    xs, ys:
        Arrays of point coordinates, of one shape.
    ring:
        (N, 2) array-like of ring vertices.

    Returns
    -------
    Boolean array of the points' shape, True where the point is strictly
    inside or (to floating point tolerance of the crossing rule) on the
    boundary.
    """
    px = np.asarray(xs, dtype=float)
    py = np.asarray(ys, dtype=float)
    coords = _ring_coords(ring)
    table = _ring_edges(coords, np.array([0, len(coords)]))
    inside = _ring_parity(px.reshape(-1), py.reshape(-1), 0, *table)
    return inside.reshape(px.shape)


def points_in_ring_serial(xs, ys, ring) -> np.ndarray:
    """Reference crossing-number kernel: per-edge loop over the ring.

    The original vectorized-over-points implementation, kept as the
    differential oracle for :func:`_ring_parity` — every batched test
    must reproduce this bit-for-bit on any input.
    """
    px = np.asarray(xs, dtype=float)
    py = np.asarray(ys, dtype=float)
    x1s, y1s = _ring_arrays(ring)
    x2s, y2s = np.roll(x1s, -1), np.roll(y1s, -1)

    inside = np.zeros(px.shape, dtype=bool)
    # Loop over edges (rings are small), vectorize over points (millions).
    for x1, y1, x2, y2 in zip(x1s.tolist(), y1s.tolist(),
                              x2s.tolist(), y2s.tolist()):
        cond = (y1 > py) != (y2 > py)
        if not cond.any():
            continue
        x_cross = (x2 - x1) * (py - y1) / (y2 - y1) + x1
        inside ^= cond & (px < x_cross)
    return inside


def on_segment(px: float, py: float, x1: float, y1: float,
               x2: float, y2: float, tol: float = 1e-12) -> bool:
    """True if point (px, py) lies on segment (x1,y1)-(x2,y2)."""
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    scale = max(abs(x2 - x1), abs(y2 - y1), 1.0)
    if abs(cross) > tol * scale * scale:
        return False
    if min(x1, x2) - tol <= px <= max(x1, x2) + tol and \
       min(y1, y2) - tol <= py <= max(y1, y2) + tol:
        return True
    return False


def _orient(ax, ay, bx, by, cx, cy) -> float:
    """Signed area of triangle abc (positive = counter-clockwise)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(a1, a2, b1, b2) -> bool:
    """True if closed segments a1-a2 and b1-b2 intersect (incl. touching)."""
    ax1, ay1 = a1
    ax2, ay2 = a2
    bx1, by1 = b1
    bx2, by2 = b2
    d1 = _orient(bx1, by1, bx2, by2, ax1, ay1)
    d2 = _orient(bx1, by1, bx2, by2, ax2, ay2)
    d3 = _orient(ax1, ay1, ax2, ay2, bx1, by1)
    d4 = _orient(ax1, ay1, ax2, ay2, bx2, by2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    if d1 == 0 and on_segment(ax1, ay1, bx1, by1, bx2, by2):
        return True
    if d2 == 0 and on_segment(ax2, ay2, bx1, by1, bx2, by2):
        return True
    if d3 == 0 and on_segment(bx1, by1, ax1, ay1, ax2, ay2):
        return True
    if d4 == 0 and on_segment(bx2, by2, ax1, ay1, ax2, ay2):
        return True
    return False


def ring_area_signed(ring) -> float:
    """Shoelace signed area of a ring in its own coordinate units squared.

    Positive for counter-clockwise rings.
    """
    xs, ys = _ring_arrays(ring)
    x_next = np.concatenate((xs[1:], xs[:1]))
    y_next = np.concatenate((ys[1:], ys[:1]))
    return float(np.sum(xs * y_next - x_next * ys) / 2.0)


def is_ccw(ring) -> bool:
    """True if the ring winds counter-clockwise."""
    return ring_area_signed(ring) > 0.0


def ring_self_intersects(ring) -> bool:
    """True if any two non-adjacent edges of the ring intersect.

    O(n^2) over edges — fine for the hand-authored rings (states,
    ecoregions) and generated perimeters this package validates.
    Adjacent edges sharing a vertex are skipped.
    """
    xs, ys = _ring_arrays(ring)
    n = len(xs)
    edges = [((xs[i], ys[i]), (xs[(i + 1) % n], ys[(i + 1) % n]))
             for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex
            if segments_intersect(edges[i][0], edges[i][1],
                                  edges[j][0], edges[j][1]):
                return True
    return False
