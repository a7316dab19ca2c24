"""Spatial indexes.

Two classic structures back the spatial-join engine:

* :class:`UniformGridIndex` — buckets millions of points into a uniform
  lon/lat grid so a polygon query touches only candidate buckets.  This is
  the workhorse for "which transceivers fall inside this fire perimeter".
* :class:`STRTree` — a packed (Sort-Tile-Recursive) R-tree over geometry
  bounding boxes, used when the query side is also geometric (e.g. which
  counties intersect a metro window).

Both are static (bulk-loaded) indexes, matching the batch nature of the
paper's analysis, and both store their structure as flat numpy arrays:

* the grid keeps its bucket table in CSR form — sorted unique bucket keys
  plus a prefix-pointer array into the bucket-sorted point order — so a
  query is two ``np.searchsorted`` calls per candidate row instead of a
  Python dict probe per candidate bucket;
* the tree keeps node bboxes as one ``(T, 4)`` float array with implicit
  child ranges, so descending a node tests all its children in one
  vectorized comparison.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..runtime.stats import STATS
from .geometry import BBox, MultiPolygon, Polygon
from .predicates import PIP_POINT_BLOCK, _ring_edges, _ring_parity

__all__ = ["UniformGridIndex", "STRTree"]


class UniformGridIndex:
    """A bulk-loaded uniform grid over 2-D points.

    Points are sorted by bucket id once at build time.  Because the sort
    key is ``row * ncols + col``, every bucket — and every *run of
    consecutive buckets within a row* — occupies one contiguous slice of
    the sorted order.  A bbox query therefore gathers, per candidate row,
    a single contiguous slice located with two binary searches over the
    unique-key array (CSR layout), instead of probing a hash table per
    bucket.  Query results are indices into the original point arrays.
    """

    def __init__(self, lons, lats, cell_deg: float = 0.25):
        self.lons = np.ascontiguousarray(lons, dtype=float)
        self.lats = np.ascontiguousarray(lats, dtype=float)
        if self.lons.shape != self.lats.shape or self.lons.ndim != 1:
            raise ValueError("lons/lats must be equal-length 1-D arrays")
        if cell_deg <= 0:
            raise ValueError("cell size must be positive")
        self.cell_deg = float(cell_deg)
        n = len(self.lons)
        self._rank_arr: np.ndarray | None = None
        if n == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._uniq_keys = np.empty(0, dtype=np.int64)
            self._bucket_ptr = np.zeros(1, dtype=np.int64)
            self._ncols = 0
            self._nrows = 0
            self.bbox = None
            self._slons = self.lons
            self._slats = self.lats
            return
        self.bbox = BBox.of_coords(self.lons, self.lats)
        self._ncols = max(1, int(np.ceil(self.bbox.width / cell_deg)) + 1)
        cols = ((self.lons - self.bbox.min_lon) // cell_deg).astype(np.int64)
        rows = ((self.lats - self.bbox.min_lat) // cell_deg).astype(np.int64)
        self._nrows = int(rows.max()) + 1
        keys = rows * self._ncols + cols
        self._order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self._order]
        # CSR bucket table: points of bucket _uniq_keys[i] are
        # _order[_bucket_ptr[i]:_bucket_ptr[i + 1]].
        uniq, starts = np.unique(sorted_keys, return_index=True)
        self._uniq_keys = uniq
        self._bucket_ptr = np.append(starts, n).astype(np.int64)
        # Coordinates in bucket-sorted order: a candidate run is then a
        # contiguous memcpy of these instead of a scattered gather over
        # the original (universe-ordered) arrays.
        self._slons = self.lons[self._order]
        self._slats = self.lats[self._order]

    def __len__(self) -> int:
        return len(self.lons)

    @property
    def _rank(self) -> np.ndarray:
        """Inverse of ``_order``: original index -> bucket-sorted position.

        Built lazily (one scatter) the first time a delta query needs to
        map previously-answered hits back onto CSR positions, then
        reused for the life of the index.
        """
        rank = self._rank_arr
        if rank is None:
            n = len(self._order)
            rank = np.empty(n, dtype=np.int64)
            rank[self._order] = np.arange(n, dtype=np.int64)
            self._rank_arr = rank
        return rank

    def _bucket_range(self, bbox: BBox):
        """(c0, c1, r0, r1) bucket window, clamped to the grid extent."""
        c0 = int((bbox.min_lon - self.bbox.min_lon) // self.cell_deg)
        c1 = int((bbox.max_lon - self.bbox.min_lon) // self.cell_deg)
        r0 = int((bbox.min_lat - self.bbox.min_lat) // self.cell_deg)
        r1 = int((bbox.max_lat - self.bbox.min_lat) // self.cell_deg)
        return (max(c0, 0), min(c1, self._ncols - 1),
                max(r0, 0), min(r1, self._nrows - 1))

    def _candidate_runs(self, bbox: BBox):
        """``(starts, ends, nbuckets)`` CSR candidate runs, or None.

        Each ``[starts[i], ends[i])`` is one contiguous run of the
        bucket-sorted order covering the candidate buckets of one grid
        row inside ``bbox``; ``nbuckets[i]`` is the number of occupied
        buckets the run spans (the unit the delta path's dirty/skipped
        counters are denominated in).
        """
        if self.bbox is None or not self.bbox.intersects(bbox):
            return None
        c0, c1, r0, r1 = self._bucket_range(bbox)
        if c1 < c0 or r1 < r0:
            return None
        # Buckets [base + c0, base + c1] of one row are consecutive keys,
        # hence one contiguous slice of the sorted order.
        bases = np.arange(r0, r1 + 1, dtype=np.int64) * self._ncols
        lo = np.searchsorted(self._uniq_keys, bases + c0, side="left")
        hi = np.searchsorted(self._uniq_keys, bases + c1, side="right")
        starts = self._bucket_ptr[lo]
        ends = self._bucket_ptr[hi]
        occupied = starts < ends
        if not occupied.any():
            return None
        return starts[occupied], ends[occupied], (hi - lo)[occupied]

    @staticmethod
    def _gather_runs(arr: np.ndarray, starts, ends) -> np.ndarray:
        """Concatenate ``arr[s:e]`` for each CSR run (contiguous copies)."""
        runs = [arr[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    def _bbox_filtered(self, bbox: BBox, starts, ends):
        """``(indices, lons, lats)`` of run candidates inside ``bbox``.

        Candidate coordinates come straight out of the presorted CSR
        runs (contiguous slices, no scattered gather); the value stream
        and the ``index.candidates`` / ``index.hits`` counters are
        identical to the historical per-candidate gather.
        """
        clons = self._gather_runs(self._slons, starts, ends)
        clats = self._gather_runs(self._slats, starts, ends)
        keep = bbox.contains_many(clons, clats)
        cand = self._gather_runs(self._order, starts, ends)
        out = cand[keep]
        STATS.count("index.candidates", len(cand))
        STATS.count("index.hits", len(out))
        return out, clons[keep], clats[keep]

    def query_bbox(self, bbox: BBox) -> np.ndarray:
        """Indices of points inside ``bbox``."""
        STATS.count("index.bbox_queries")
        runs = self._candidate_runs(bbox)
        if runs is None:
            return np.empty(0, dtype=np.int64)
        starts, ends, _ = runs
        out, _, _ = self._bbox_filtered(bbox, starts, ends)
        return out

    def query_polygon(self, polygon: Polygon | MultiPolygon) -> np.ndarray:
        """Indices of points inside the polygon (exact, holes respected).

        The batch point-in-polygon kernel runs directly over the CSR
        candidate coordinates retained by the bbox filter — the original
        point arrays are never re-gathered.
        """
        STATS.count("index.bbox_queries")
        runs = self._candidate_runs(polygon.bbox)
        if runs is None:
            return np.empty(0, dtype=np.int64)
        starts, ends, _ = runs
        cand, clons, clats = self._bbox_filtered(polygon.bbox, starts,
                                                 ends)
        if len(cand) == 0:
            return cand
        keep = polygon.contains_many(clons, clats)
        out = cand[keep]
        STATS.count("index.polygon_queries")
        STATS.count("index.pip_tests", len(cand))
        STATS.count("index.pip_hits", len(out))
        return out

    def _box_runs(self, boxes: np.ndarray):
        """``(box, starts, ends)``: the CSR runs of many boxes at once.

        The runs :meth:`_candidate_runs` finds for each row of the
        ``(n, 4)`` ``boxes`` array (``min_lon, min_lat, max_lon,
        max_lat``), concatenated in box order, each with its box's row
        number.  The bucket windows take ``_bucket_range``'s float
        ``//`` and clamps; clamping before the int cast keeps far-off
        boxes in int64 range and their windows empty.
        """
        no_runs = np.empty(0, dtype=np.int64)
        if self.bbox is None or len(boxes) == 0:
            return no_runs, no_runs, no_runs
        grid, cell = self.bbox, self.cell_deg
        x0, y0, x1, y1 = boxes.T
        c0 = np.clip((x0 - grid.min_lon) // cell, 0, self._ncols)
        c1 = np.clip((x1 - grid.min_lon) // cell, -1, self._ncols - 1)
        r0 = np.clip((y0 - grid.min_lat) // cell, 0, self._nrows)
        r1 = np.clip((y1 - grid.min_lat) // cell, -1, self._nrows - 1)
        meets = ~((x0 > grid.max_lon) | (x1 < grid.min_lon)
                  | (y0 > grid.max_lat) | (y1 < grid.min_lat))
        n_rows = np.where(meets & (c0 <= c1) & (r0 <= r1),
                          r1 - r0 + 1, 0).astype(np.int64)
        box = np.repeat(np.arange(len(boxes)), n_rows)
        row_in_box = np.arange(len(box)) - np.repeat(
            np.cumsum(n_rows) - n_rows, n_rows)
        bases = (r0.astype(np.int64)[box] + row_in_box) * self._ncols
        lo = np.searchsorted(self._uniq_keys,
                             bases + c0.astype(np.int64)[box], side="left")
        hi = np.searchsorted(self._uniq_keys,
                             bases + c1.astype(np.int64)[box], side="right")
        starts = self._bucket_ptr[lo]
        ends = self._bucket_ptr[hi]
        occupied = starts < ends
        return box[occupied], starts[occupied], ends[occupied]

    def candidate_count(self, boxes) -> int:
        """Candidates that polygon queries with these ``(n, 4)`` boxes
        gather, summed: the lengths of their CSR runs, the work of a
        join.  Counts nothing itself."""
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        _, starts, ends = self._box_runs(boxes)
        return int((ends - starts).sum())

    def query_rings(self, coords, offsets, boxes) \
            -> tuple[np.ndarray, np.ndarray]:
        """Join a batch of hole-free one-ring polygons in one pass.

        ``coords`` holds every ring's exterior vertices, concatenated:
        ring ``i`` is ``coords[offsets[i]:offsets[i + 1]]``.  ``boxes``
        is the ``(n, 4)`` array of each polygon's own ``bbox``.  Returns
        per-ring hit counts and the hits concatenated in ring order.
        Ring ``i``'s hits equal :meth:`query_polygon` of its polygon in
        values, order and dtype, and every ``index.*`` counter total
        equals that of one ``query_polygon`` call per ring:

        * every ring's CSR runs come from one vectorized pass;
        * candidates are gathered and box-tested in blocks of at most
          ``PIP_POINT_BLOCK``, in ring order and run order;
        * each survivor takes ``_ring_parity``'s crossing-number test
          over its own ring, the test ``Polygon.contains_many`` runs.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        offsets = np.asarray(offsets, dtype=np.int64)
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        n = len(boxes)
        counts = np.zeros(n, dtype=np.int64)
        if n == 0:
            return counts, np.empty(0, dtype=np.int64)
        STATS.count("index.bbox_queries", n)
        ring_of_run, starts, ends = self._box_runs(boxes)
        run_len = ends - starts
        run_end = np.cumsum(run_len)
        total = int(run_end[-1]) if len(run_end) else 0
        if total == 0:
            return counts, np.empty(0, dtype=np.int64)
        run_begin = run_end - run_len
        shift = starts - run_begin
        edges = _ring_edges(coords, offsets)
        x0, y0, x1, y1 = (np.ascontiguousarray(b) for b in boxes.T)
        hit_pos: list[np.ndarray] = []
        hit_ring: list[np.ndarray] = []
        queried = np.zeros(n, dtype=bool)
        n_box_hits = 0
        for b0 in range(0, total, PIP_POINT_BLOCK):
            b1 = min(total, b0 + PIP_POINT_BLOCK)
            # Candidates b0..b1-1 of the runs laid end to end: each
            # overlapping run cut to the block.
            lo = int(np.searchsorted(run_end, b0, side="right"))
            hi = int(np.searchsorted(run_begin, b1, side="left"))
            take = (np.minimum(run_end[lo:hi], b1)
                    - np.maximum(run_begin[lo:hi], b0))
            pos = np.arange(b0, b1) + np.repeat(shift[lo:hi], take)
            rings = ring_of_run[lo:hi]
            ring = np.repeat(rings, take)
            lon, lat = self._slons[pos], self._slats[pos]
            keep = ((lon >= np.repeat(x0[rings], take))
                    & (lon <= np.repeat(x1[rings], take))
                    & (lat >= np.repeat(y0[rings], take))
                    & (lat <= np.repeat(y1[rings], take)))
            pos, ring, lon, lat = pos[keep], ring[keep], lon[keep], lat[keep]
            if len(pos) == 0:
                continue
            n_box_hits += len(pos)
            queried[ring] = True
            inside = _ring_parity(lon, lat, ring, *edges)
            hit_pos.append(pos[inside])
            hit_ring.append(ring[inside])
        STATS.count("index.candidates", total)
        STATS.count("index.hits", n_box_hits)
        if n_box_hits == 0:
            return counts, np.empty(0, dtype=np.int64)
        hits = self._order[np.concatenate(hit_pos)]
        counts = np.bincount(np.concatenate(hit_ring),
                             minlength=n).astype(np.int64)
        STATS.count("index.polygon_queries", int(queried.sum()))
        STATS.count("index.pip_tests", n_box_hits)
        STATS.count("index.pip_hits", len(hits))
        return counts, hits

    def query_polygon_delta(self, polygon: Polygon | MultiPolygon,
                            prev_hits: np.ndarray) -> np.ndarray:
        """Indices inside ``polygon``, reusing an answered footprint.

        ``prev_hits`` must be the exact result of an earlier
        :meth:`query_polygon` (or ``query_polygon_delta``) for a
        perimeter *contained in* ``polygon`` — the monotone-growth
        contract of a spreading fire front.  Under it every previous
        hit is still a hit, so the query only has to discover the
        points the grown perimeter newly covers:

        * candidate buckets whose points were **all** answered by
          ``prev_hits`` are *skipped* outright (no gather, no bbox
          test, no point-in-polygon) — ``index.skipped_buckets``;
        * the remaining *dirty* buckets (``index.dirty_buckets``) run
          the normal bbox prefilter, but only their still-unanswered
          candidates pay the point-in-polygon test
          (``index.pip_skipped`` counts the tests avoided).

        The return value is bit-identical — values, order, dtype — to
        ``query_polygon(polygon)``, and the ``index.candidates`` /
        ``index.hits`` / ``index.pip_hits`` counter totals match the
        batch call exactly; ``index.pip_tests`` counts only the tests
        actually run, with ``pip_tests + pip_skipped`` equal to the
        batch total.  If ``prev_hits`` is not a monotone footprint the
        result is undefined.
        """
        prev_hits = np.asarray(prev_hits, dtype=np.int64)
        STATS.count("index.bbox_queries")
        STATS.count("index.delta_queries")
        runs = self._candidate_runs(polygon.bbox)
        if runs is None:
            STATS.count("index.polygon_queries")
            return np.empty(0, dtype=np.int64)
        starts, ends, nbuckets = runs
        # Previously-answered hits as sorted CSR positions: a run's
        # answered count is then one searchsorted pair, and "every
        # candidate answered" == "run fully answered" == skippable.
        prev_pos = np.sort(self._rank[prev_hits])
        lo = np.searchsorted(prev_pos, starts, side="left")
        hi = np.searchsorted(prev_pos, ends, side="left")
        run_len = ends - starts
        full = (hi - lo) == run_len
        n_cand = int(run_len.sum())
        n_full_cand = int(run_len[full].sum())
        STATS.count("index.skipped_buckets", int(nbuckets[full].sum()))
        STATS.count("index.dirty_buckets", int(nbuckets[~full].sum()))
        # Batch-parity accounting: a skipped run's candidates are all
        # previous hits, hence inside the old perimeter, hence inside
        # the grown perimeter's bbox — the batch call would have
        # counted every one as a candidate and a bbox hit.
        STATS.count("index.candidates", n_cand)

        pieces = [prev_pos[s:e] for s, e in
                  zip(lo[full].tolist(), hi[full].tolist())]
        n_bbox_hits = n_full_cand
        n_pip_tests = 0
        dirty_starts, dirty_ends = starts[~full], ends[~full]
        if len(dirty_starts):
            clons = self._gather_runs(self._slons, dirty_starts,
                                      dirty_ends)
            clats = self._gather_runs(self._slats, dirty_starts,
                                      dirty_ends)
            pos = np.concatenate(
                [np.arange(s, e, dtype=np.int64) for s, e in
                 zip(dirty_starts.tolist(), dirty_ends.tolist())])
            keep = polygon.bbox.contains_many(clons, clats)
            pos, clons, clats = pos[keep], clons[keep], clats[keep]
            n_bbox_hits += len(pos)
            # Answered candidates survive without a point-in-polygon
            # test (they are inside the old perimeter); the rest run
            # the exact batch kernel on the same contiguous coords.
            if len(prev_pos):
                ins = np.minimum(np.searchsorted(prev_pos, pos),
                                 len(prev_pos) - 1)
                answered = prev_pos[ins] == pos
            else:
                answered = np.zeros(len(pos), dtype=bool)
            n_pip_tests = int((~answered).sum())
            if n_pip_tests:
                inside = polygon.contains_many(clons[~answered],
                                               clats[~answered])
                pieces.append(pos[~answered][inside])
            pieces.append(pos[answered])
        STATS.count("index.hits", n_bbox_hits)

        out_pos = np.concatenate(pieces) if pieces \
            else np.empty(0, dtype=np.int64)
        out_pos.sort()
        # Batch output order is ascending CSR position (runs are
        # disjoint ascending intervals), so the sorted union reproduces
        # it bit-for-bit.
        out = self._order[out_pos]
        STATS.count("index.polygon_queries")
        STATS.count("index.pip_tests", n_pip_tests)
        STATS.count("index.pip_skipped", len(prev_hits))
        STATS.count("index.pip_hits", len(out))
        return out


class STRTree:
    """Sort-Tile-Recursive packed R-tree over bounding boxes.

    Bulk-loaded from a sequence of (bbox, payload) pairs.  Queries return
    payloads whose bbox intersects the query bbox; exact geometric tests
    are the caller's job.

    Nodes live in flat parallel arrays — ``_bboxes`` is one ``(T, 4)``
    float array ``[min_lon, min_lat, max_lon, max_lat]``, children of an
    internal node are a contiguous range of ``_children`` — so a query
    tests all children of a node with one vectorized bbox comparison
    instead of popping ``_Node`` objects one at a time.
    """

    def __init__(self, items: Sequence[tuple[BBox, object]],
                 node_capacity: int = 8):
        if node_capacity < 2:
            raise ValueError("node capacity must be >= 2")
        self.node_capacity = node_capacity
        items = list(items)
        n = len(items)
        self._payloads = [payload for _, payload in items]
        if n == 0:
            self._root = -1
            self._bboxes = np.empty((0, 4), dtype=float)
            self._child_first = np.empty(0, dtype=np.int64)
            self._child_count = np.empty(0, dtype=np.int64)
            self._item = np.empty(0, dtype=np.int64)
            self._children = np.empty(0, dtype=np.int64)
            return
        leaf_bb = np.array([[b.min_lon, b.min_lat, b.max_lon, b.max_lat]
                            for b, _ in items], dtype=float)
        # Growing node tables; leaves are nodes 0..n-1.
        bbox_chunks = [leaf_bb]
        child_first = [-1] * n
        child_count = [0] * n
        item = list(range(n))
        children_flat: list[np.ndarray] = []
        next_id = n

        level_ids = np.arange(n, dtype=np.int64)
        level_bb = leaf_bb
        while len(level_ids) > 1:
            cap = self.node_capacity
            m = len(level_ids)
            cx = (level_bb[:, 0] + level_bb[:, 2]) / 2.0
            cy = (level_bb[:, 1] + level_bb[:, 3]) / 2.0
            order = np.argsort(cx, kind="stable")
            n_leaves = int(np.ceil(m / cap))
            n_slices = max(1, int(np.ceil(np.sqrt(n_leaves))))
            slice_size = int(np.ceil(m / n_slices))
            parent_ids = []
            parent_rows = []
            for s in range(0, m, slice_size):
                sl = order[s:s + slice_size]
                sl = sl[np.argsort(cy[sl], kind="stable")]
                for i in range(0, len(sl), cap):
                    grp = sl[i:i + cap]
                    gb = level_bb[grp]
                    parent_rows.append((gb[:, 0].min(), gb[:, 1].min(),
                                        gb[:, 2].max(), gb[:, 3].max()))
                    child_first.append(
                        sum(len(c) for c in children_flat))
                    child_count.append(len(grp))
                    item.append(-1)
                    children_flat.append(level_ids[grp])
                    parent_ids.append(next_id)
                    next_id += 1
            level_bb = np.array(parent_rows, dtype=float)
            level_ids = np.array(parent_ids, dtype=np.int64)
            bbox_chunks.append(level_bb)

        self._root = int(level_ids[0])
        self._bboxes = np.concatenate(bbox_chunks, axis=0)
        self._child_first = np.array(child_first, dtype=np.int64)
        self._child_count = np.array(child_count, dtype=np.int64)
        self._item = np.array(item, dtype=np.int64)
        self._children = (np.concatenate(children_flat)
                          if children_flat else np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self._payloads)

    def query(self, bbox: BBox) -> list:
        """Payloads whose bbox intersects ``bbox``."""
        if self._root < 0:
            return []
        qx0, qy0, qx1, qy1 = (bbox.min_lon, bbox.min_lat,
                              bbox.max_lon, bbox.max_lat)
        out: list = []
        visited = 1  # root is always tested
        stack: list[int] = []
        rb = self._bboxes[self._root]
        if not (qx0 > rb[2] or qx1 < rb[0] or qy0 > rb[3] or qy1 < rb[1]):
            stack.append(self._root)
        # Emit leaves as they pop off the stack — the same DFS emission
        # order as the pointer-chasing implementation this replaces; only
        # the child bbox tests are batched.
        while stack:
            nid = stack.pop()
            if self._child_count[nid] == 0:
                out.append(self._payloads[self._item[nid]])
                continue
            first = self._child_first[nid]
            ch = self._children[first:first + self._child_count[nid]]
            cb = self._bboxes[ch]
            visited += len(ch)
            ok = ~((qx0 > cb[:, 2]) | (qx1 < cb[:, 0])
                   | (qy0 > cb[:, 3]) | (qy1 < cb[:, 1]))
            stack.extend(int(h) for h in ch[ok])
        STATS.count("strtree.queries")
        STATS.count("strtree.nodes_visited", visited)
        STATS.count("strtree.results", len(out))
        return out

    def query_point(self, lon: float, lat: float) -> list:
        """Payloads whose bbox contains the point."""
        return self.query(BBox(lon, lat, lon, lat))
