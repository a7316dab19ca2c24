"""Synthetic interstate-highway network.

Cell infrastructure follows roads (§3.7: "the network extends limited
assets into more rural areas and along transportation pathways"), and the
WHP-validation anomaly of §3.4 hinges on transceivers sitting in road
corridors that WHP classifies as low-risk.  We build a highway graph over
the metro anchors: a Euclidean minimum spanning tree (guaranteeing
connectivity, like the national backbone) plus each city's k nearest
neighbors (adding the redundant links real interstates have).

Edges are straight great-circle corridors — adequate at the fidelity of
the synthetic US.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..geo.geometry import LineString
from ..geo.projection import haversine_m
from .cities import conus_cities

__all__ = ["road_edges", "road_segments", "distance_to_roads_deg",
           "dense_mst"]


@lru_cache(maxsize=1)
def road_edges(k_neighbors: int = 3) -> np.ndarray:
    """Highway edges as an ``(n_edges, 2)`` array of city indices.

    Indices point into :func:`conus_cities`; each row is ``(u, v)`` with
    ``u < v``.  Rows are grouped by ``u`` in city order and, within a
    city, ordered by insertion: tree edges by ascending length
    (Kruskal's order), then the k-nearest-neighbor edges.  The town
    sampler draws its random numbers segment by segment in this order.
    """
    cities = conus_cities()
    lons = np.array([c.lon for c in cities])
    lats = np.array([c.lat for c in cities])
    d = np.array([haversine_m(lons[i], lats[i], lons, lats)
                  for i in range(len(cities))])
    tree = np.argwhere(dense_mst(d))
    tree = tree[np.argsort(d[tree[:, 0], tree[:, 1]], kind="stable")]
    near = np.argsort(d, axis=1)[:, 1:k_neighbors + 1]
    knn = np.column_stack((np.repeat(np.arange(len(cities)), k_neighbors),
                           near.ravel()))
    edges = np.sort(np.concatenate((tree, knn)), axis=1)
    _, first = np.unique(edges, axis=0, return_index=True)
    edges = edges[np.sort(first)]
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    edges.setflags(write=False)  # cached and shared by every caller
    return edges


@lru_cache(maxsize=1)
def road_segments() -> tuple[LineString, ...]:
    """All highway edges as 2-vertex LineStrings (lon/lat)."""
    cities = conus_cities()
    return tuple(LineString([(cities[u].lon, cities[u].lat),
                             (cities[v].lon, cities[v].lat)])
                 for u, v in road_edges().tolist())


def dense_mst(d: np.ndarray) -> np.ndarray:
    """Minimum spanning tree edges of a dense distance matrix.

    Dense Prim's algorithm, O(n^2) with one vectorized relaxation per
    added node.  Returns a boolean (n, n) matrix marking tree edges
    (parent -> child as discovered).  The MST is unique — hence equal to
    the Kruskal tree of the complete graph — whenever the off-diagonal
    distances are distinct, the generic case for continuously sampled
    points.
    """
    n = d.shape[0]
    mst = np.zeros((n, n), dtype=bool)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].astype(float, copy=True)
    best[0] = np.inf
    parent = np.zeros(n, dtype=np.int64)
    for _ in range(n - 1):
        j = int(np.argmin(best))
        in_tree[j] = True
        mst[parent[j], j] = True
        best[j] = np.inf
        better = (d[j] < best) & ~in_tree
        parent[better] = j
        best[better] = d[j][better]
    return mst


def distance_to_roads_deg(lons, lats, chunk: int = 512) -> np.ndarray:
    """Min distance (degrees) from points to any highway segment.

    Used by the population/transceiver samplers to create road corridors.
    Works on chunks of points and skips, per chunk, every segment that
    provably cannot contain the minimum: a segment is dropped only when
    the separation of its bbox from the chunk's bbox exceeds an upper
    bound on the chunk's final answer (nearest-segment distance from the
    chunk center plus the chunk's half-diagonal, plus a safety margin
    dwarfing float rounding).  Min is exact in floating point, so the
    result is bit-identical to testing every segment.
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    flat_lons = np.atleast_1d(lons.ravel())
    flat_lats = np.atleast_1d(lats.ravel())
    segs = np.array([(s.coords[0][0], s.coords[0][1],
                      s.coords[1][0], s.coords[1][1])
                     for s in road_segments()])
    sx0 = np.minimum(segs[:, 0], segs[:, 2])
    sx1 = np.maximum(segs[:, 0], segs[:, 2])
    sy0 = np.minimum(segs[:, 1], segs[:, 3])
    sy1 = np.maximum(segs[:, 1], segs[:, 3])

    # Group points into ~1-degree spatial tiles before chunking: callers
    # pass raster scan orders whose consecutive runs span the whole
    # domain, which would give every chunk a domain-sized bbox and
    # defeat the pruning.  Each point's distance is independent of
    # processing order, so the permutation changes nothing but speed.
    tile_key = ((np.floor(flat_lons) + 200.0) * 400.0
                + (np.floor(flat_lats) + 100.0)).astype(np.int64)
    order = np.argsort(tile_key, kind="stable")

    best = np.full(flat_lons.shape, np.inf)
    for start in range(0, len(flat_lons), chunk):
        idx = order[start:start + chunk]
        px = flat_lons[idx]
        py = flat_lats[idx]
        bx0, bx1 = px.min(), px.max()
        by0, by1 = py.min(), py.max()
        # Minimax bound: point-to-segment distance is convex, so its max
        # over the chunk rectangle sits on a corner.  min over segments
        # of that corner max bounds every point's final answer.
        dx = segs[:, 2] - segs[:, 0]
        dy = segs[:, 3] - segs[:, 1]
        seg_len2 = np.where(dx * dx + dy * dy == 0.0, 1.0,
                            dx * dx + dy * dy)
        corner_max = np.zeros(len(segs))
        for qx, qy in ((bx0, by0), (bx0, by1), (bx1, by0), (bx1, by1)):
            t = np.clip(((qx - segs[:, 0]) * dx + (qy - segs[:, 1]) * dy)
                        / seg_len2, 0.0, 1.0)
            d = np.hypot(qx - (segs[:, 0] + t * dx),
                         qy - (segs[:, 1] + t * dy))
            np.maximum(corner_max, d, out=corner_max)
        upper = float(corner_max.min()) + 1e-6
        lower = np.hypot(np.maximum(0.0, np.maximum(sx0 - bx1, bx0 - sx1)),
                         np.maximum(0.0, np.maximum(sy0 - by1, by0 - sy1)))
        keep = np.nonzero(lower <= upper)[0]
        if len(keep) == 0:
            best[idx] = np.inf
            continue
        # One broadcast evaluation over (kept segments, chunk points):
        # each element is the distance from the point to its projection
        # clamped onto the segment, t = clip(((p - a) . d) / |d|^2, 0, 1)
        # (|d|^2 := 1 for a zero-length segment, so t = 0 and the
        # distance is to its endpoint), and an axis-min of the same
        # floats equals the running-minimum loop exactly.
        x1 = segs[keep, 0][:, None]
        y1 = segs[keep, 1][:, None]
        dxk = dx[keep][:, None]
        dyk = dy[keep][:, None]
        len2 = seg_len2[keep][:, None]
        t = np.clip(((px[None, :] - x1) * dxk + (py[None, :] - y1) * dyk)
                    / len2, 0.0, 1.0)
        d = np.hypot(px[None, :] - (x1 + t * dxk),
                     py[None, :] - (y1 + t * dyk))
        best[idx] = d.min(axis=0)
    return best.reshape(lons.shape)

