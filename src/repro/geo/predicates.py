"""Low-level geometric predicates.

These are the inner loops of the spatial-join engine: point-in-ring tests
(both a scalar version and a numpy-vectorized version used for millions of
transceivers at once) and segment intersection.

All functions operate on plain coordinates; the coordinate system is
whichever the caller uses consistently (lon/lat degrees everywhere in this
package — point-in-polygon is affine-invariant so degrees are fine).

Rings may be given as plain (N, 2) array-likes or as :class:`PreparedRing`
objects.  Preparation front-loads the validation, closure trim, and edge
array construction that every predicate needs, so a ring queried thousands
of times (one fire perimeter against every chunk of a 5M-point universe)
pays that cost exactly once.  Prepared and unprepared paths produce
bit-identical results: preparation only caches arrays, it never changes an
arithmetic expression.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PreparedRing",
    "prepare_ring",
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


def _coords_close(ax: float, ay: float, bx: float, by: float) -> bool:
    """Scalar equivalent of ``np.allclose([ax, ay], [bx, by])``."""
    return (abs(ax - bx) <= _CLOSE_ATOL + _CLOSE_RTOL * abs(bx)
            and abs(ay - by) <= _CLOSE_ATOL + _CLOSE_RTOL * abs(by))


def _validated_ring(ring) -> np.ndarray:
    """Validate an (N, 2) ring array-like; trim a closing vertex."""
    arr = np.asarray(ring, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("ring must be an (N, 2) array of coordinates")
    if len(arr) >= 2 and _coords_close(arr[0, 0], arr[0, 1],
                                       arr[-1, 0], arr[-1, 1]):
        arr = arr[:-1]
    if len(arr) < 3:
        raise ValueError("ring needs at least 3 distinct vertices")
    return arr


class PreparedRing:
    """A ring with its per-query arrays computed once.

    Holds the open (no duplicated closing vertex) coordinate arrays plus
    the rolled-by-one edge endpoint arrays that every crossing-number and
    shoelace computation needs.  ``edges`` is the same data as a list of
    Python float 4-tuples, which the edge loop in :func:`points_in_ring`
    iterates faster than numpy scalars.
    """

    __slots__ = ("xs", "ys", "x_next", "y_next", "edges", "n")

    def __init__(self, ring):
        if isinstance(ring, PreparedRing):
            raise TypeError("ring is already prepared")
        arr = _validated_ring(ring)
        xs = np.ascontiguousarray(arr[:, 0])
        ys = np.ascontiguousarray(arr[:, 1])
        # Identical element values/order to np.roll(a, -1), much cheaper.
        self.xs = xs
        self.ys = ys
        self.x_next = np.concatenate((xs[1:], xs[:1]))
        self.y_next = np.concatenate((ys[1:], ys[:1]))
        self.edges = list(zip(xs.tolist(), ys.tolist(),
                              self.x_next.tolist(), self.y_next.tolist()))
        self.n = len(xs)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PreparedRing({self.n} vertices)"


def prepare_ring(ring) -> PreparedRing:
    """Prepare a ring, or return it unchanged if already prepared."""
    if isinstance(ring, PreparedRing):
        return ring
    return PreparedRing(ring)


def _ring_arrays(ring) -> tuple[np.ndarray, np.ndarray]:
    """Return (xs, ys) for a ring given as an (N, 2) array-like.

    A trailing vertex equal to the first is tolerated but not required.
    Prepared rings return their cached arrays without revalidation.
    """
    if isinstance(ring, PreparedRing):
        return ring.xs, ring.ys
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


#: Edge rows per batched crossing-number block.  Together with
#: ``PIP_POINT_BLOCK`` this bounds every 2-D temporary of the batch
#: kernel to ``PIP_EDGE_BLOCK x PIP_POINT_BLOCK`` doubles (~64 MB at the
#: defaults), so a 5M-point candidate set streams through bounded tiles.
PIP_EDGE_BLOCK = 128

#: Points per batched crossing-number block (columns of the 2-D tile).
PIP_POINT_BLOCK = 65_536


def points_in_ring(xs, ys, ring) -> np.ndarray:
    """Vectorized crossing-number test (batched 2-D kernel).

    Evaluates edges x points as bounded 2-D blocks and XOR-reduces the
    crossing parity over the edge axis.  Every element runs the exact
    arithmetic of the per-edge loop in :func:`points_in_ring_serial`
    (``x_cross = (x2-x1)*(py-y1)/(y2-y1)+x1`` then ``px < x_cross``),
    and XOR is order-independent, so the result is bit-identical to the
    serial kernel — the scale-stratified differential tier enforces it.

    Parameters
    ----------
    xs, ys:
        1-D arrays of point coordinates.
    ring:
        (N, 2) array-like of ring vertices, or a :class:`PreparedRing`.

    Returns
    -------
    Boolean array, True where the point is strictly inside or (to floating
    point tolerance of the crossing rule) on the boundary.
    """
    px = np.asarray(xs, dtype=float)
    py = np.asarray(ys, dtype=float)
    ring = prepare_ring(ring)

    inside = np.zeros(px.shape, dtype=bool)
    n = px.size
    if n == 0:
        return inside
    flat_px = px.reshape(-1)
    flat_py = py.reshape(-1)
    flat_inside = inside.reshape(-1)
    for p0 in range(0, n, PIP_POINT_BLOCK):
        p1 = min(n, p0 + PIP_POINT_BLOCK)
        _pip_block(ring, flat_px[p0:p1], flat_py[p0:p1],
                   flat_inside[p0:p1])
    return inside


def _pip_block(ring: PreparedRing, px: np.ndarray, py: np.ndarray,
               out: np.ndarray) -> None:
    """Crossing parity of one point block, accumulated into ``out``."""
    for e0 in range(0, ring.n, PIP_EDGE_BLOCK):
        e1 = min(ring.n, e0 + PIP_EDGE_BLOCK)
        x1 = ring.xs[e0:e1, None]
        y1 = ring.ys[e0:e1, None]
        x2 = ring.x_next[e0:e1, None]
        y2 = ring.y_next[e0:e1, None]
        cond = (y1 > py) != (y2 > py)
        # Horizontal edges divide by zero; ``cond`` is False there, and
        # a comparison against the resulting inf/nan is False too, so
        # the masked value never reaches the parity.
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = (x2 - x1) * (py - y1) / (y2 - y1) + x1
        out ^= np.bitwise_xor.reduce(cond & (px < x_cross), axis=0)


def points_in_ring_serial(xs, ys, ring) -> np.ndarray:
    """Reference crossing-number kernel: per-edge loop over the ring.

    The original vectorized-over-points implementation, kept as the
    differential oracle for :func:`points_in_ring` — the batch kernel
    must reproduce this bit-for-bit on any input.
    """
    px = np.asarray(xs, dtype=float)
    py = np.asarray(ys, dtype=float)
    ring = prepare_ring(ring)

    inside = np.zeros(px.shape, dtype=bool)
    # Loop over edges (rings are small), vectorize over points (millions).
    for x1, y1, x2, y2 in ring.edges:
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
    if isinstance(ring, PreparedRing):
        xs, ys = ring.xs, ring.ys
        x_next, y_next = ring.x_next, ring.y_next
    else:
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
