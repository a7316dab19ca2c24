"""Tests for repro.data.counties."""

import numpy as np
import pytest

from repro.data.counties import PopCategory, categorize_population


class TestCategories:
    @pytest.mark.parametrize("pop,expected", [
        (0, PopCategory.RURAL),
        (200_000, PopCategory.RURAL),       # boundary: strictly greater
        (200_001, PopCategory.POP_M),
        (500_000, PopCategory.POP_M),
        (500_001, PopCategory.POP_H),
        (1_500_000, PopCategory.POP_H),
        (1_500_001, PopCategory.POP_VH),
        (10_100_000, PopCategory.POP_VH),
    ])
    def test_boundaries(self, pop, expected):
        assert categorize_population(pop) == expected


class TestLayer:
    def test_named_counties_first(self, counties):
        assert counties.n_named > 80
        named = counties.counties[:counties.n_named]
        assert all(c.anchor_city is not None for c in named)

    def test_paper_top_counties_exist(self, counties):
        for name in ("Los Angeles", "Cook", "Harris", "Maricopa",
                     "San Diego", "Miami-Dade", "Clark",
                     "Philadelphia"):
            county = counties.by_name(name)
            assert county.category == PopCategory.POP_VH \
                or county.population > 1_000_000, name

    def test_by_name_unknown(self, counties):
        with pytest.raises(KeyError):
            counties.by_name("Atlantis")

    def test_very_dense_count_near_paper(self, counties):
        """Paper: 23 counties above 1.5M people."""
        n = len(counties.very_dense())
        assert 15 <= n <= 35

    def test_la_county_is_biggest(self, counties):
        vd = counties.very_dense()
        biggest = max(vd, key=lambda c: c.population)
        assert biggest.name == "Los Angeles"

    def test_pop_share_in_categories(self, counties):
        """Paper: the three categories hold ~65% of US population."""
        pops = counties.populations()
        cats = counties.categories()
        share = pops[cats >= int(PopCategory.POP_M)].sum() / pops.sum()
        assert 0.5 < share < 0.85

    def test_assignment_priority_named(self, counties):
        """A point in LA county assigns to it, not an overlapping tile."""
        la = counties.by_name("Los Angeles")
        idx = counties.assign(la.bbox.center.lon, la.bbox.center.lat)
        assert counties.counties[idx].name == "Los Angeles"

    def test_assign_many_matches_scalar(self, counties, rng):
        lons = rng.uniform(-120, -75, 300)
        lats = rng.uniform(28, 45, 300)
        many = counties.assign_many(lons, lats)
        assert np.array_equal(many,
                              _tile_loop_assign(counties, lons, lats)[0])
        for i in range(300):
            assert many[i] == counties.assign(lons[i], lats[i])

    def test_most_land_points_assigned(self, counties, cells):
        idx = counties.assign_many(cells.lons[:3000], cells.lats[:3000])
        assert (idx >= 0).mean() > 0.92

    def test_ocean_unassigned(self, counties):
        assert counties.assign(-70.0, 33.0) == -1

    def test_subdivided_tiles_not_very_dense_unanchored(self, counties):
        """Unanchored leaf tiles stay below the subdivision cut unless
        they are at minimum size."""
        for c in counties.counties[counties.n_named:]:
            if c.population > 1_500_000:
                assert c.bbox.width <= 0.35 / 2 + 1e-9, c.name

    def test_categories_array_matches(self, counties):
        cats = counties.categories()
        for i in (0, len(cats) // 2, len(cats) - 1):
            assert cats[i] == int(counties.counties[i].category)


def _tile_loop_assign(layer, lons, lats):
    """Oracle: the named pass and per-point tile loop that
    ``CountyLayer.assign_many`` ran before its tile table.

    Returns the county per point and, per point, which entry of a
    several-entry tile took it (-1 for every other rule)."""
    ncols = int(np.ceil(layer.bbox.width / layer.tile_deg))
    nrows = int(np.ceil(layer.bbox.height / layer.tile_deg))

    def tile_key(lon, lat):
        # A point off the tile grid, or with a non-finite coordinate,
        # has no tile (key -1).
        col = np.floor((np.asarray(lon) - layer.bbox.min_lon)
                       / layer.tile_deg)
        row = np.floor((np.asarray(lat) - layer.bbox.min_lat)
                       / layer.tile_deg)
        keys = np.full(np.shape(col), -1, dtype=np.int64)
        for i, (c, r) in enumerate(zip(np.ravel(col), np.ravel(row))):
            if 0 <= c < ncols and 0 <= r < nrows:
                keys.flat[i] = int(r) * ncols + int(c)
        return keys

    by_tile: dict[int, list[int]] = {}
    centers = [c.bbox.center for c in layer.counties[layer.n_named:]]
    keys = tile_key([p.lon for p in centers], [p.lat for p in centers])
    for i, key in enumerate(keys.tolist(), start=layer.n_named):
        by_tile.setdefault(key, []).append(i)

    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    out = np.full(len(lons), -1, dtype=np.int64)
    entry = np.full(len(lons), -1, dtype=np.int64)
    for i in range(layer.n_named):
        box = layer.counties[i].bbox
        hit = (out < 0) & box.contains_many(lons, lats)
        out[hit] = i
    rest = np.nonzero(out < 0)[0]
    keys = np.atleast_1d(tile_key(lons[rest], lats[rest]))
    for j, key in zip(rest.tolist(), keys.tolist()):
        entries = by_tile.get(key)
        if not entries:
            continue
        if len(entries) == 1:
            out[j] = entries[0]
            continue
        for n, i in enumerate(entries):
            if layer.counties[i].bbox.contains(lons[j], lats[j]):
                out[j] = i
                entry[j] = n
                break
    return out, entry


def _lattice(boxes):
    """Per (min_lon, min_lat, max_lon, max_lat) row, the 5 x 5 points at
    its edges, quarter lines and midlines: centre, corners, the four
    edges and both midlines, each taken exactly as the box's floats."""
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)

    def ticks(lo, hi):
        return np.stack([lo, lo + (hi - lo) / 4.0, (lo + hi) / 2.0,
                         hi - (hi - lo) / 4.0, hi], axis=1)

    xs, ys = ticks(b[:, 0], b[:, 2]), ticks(b[:, 1], b[:, 3])
    lons = np.repeat(xs, 5, axis=1).ravel()
    lats = np.tile(ys, (1, 5)).ravel()
    return lons, lats


def _probe_points(universe):
    """Every point set the tile table is checked on."""
    layer = universe.counties
    bbox, deg = layer.bbox, layer.tile_deg
    n_cols = int(np.ceil(bbox.width / deg))
    n_rows = int(np.ceil(bbox.height / deg))
    col, row = np.meshgrid(np.arange(n_cols), np.arange(n_rows))
    tile_lo_lon = bbox.min_lon + col.ravel() * deg
    tile_lo_lat = bbox.min_lat + row.ravel() * deg
    grid_tiles = np.column_stack([tile_lo_lon, tile_lo_lat,
                                  tile_lo_lon + deg, tile_lo_lat + deg])
    county_boxes = [[c.bbox.min_lon, c.bbox.min_lat, c.bbox.max_lon,
                     c.bbox.max_lat] for c in layer.counties]
    lattice_lons, lattice_lats = _lattice(
        np.concatenate([grid_tiles, county_boxes]))
    # Off the grid on every side (a column off the west edge aliases to
    # the previous row's last tile), open ocean inside it, and
    # non-finite coordinates.
    side = np.linspace(bbox.min_lat - 1.0, bbox.max_lat + 1.0, 60)
    across = np.linspace(bbox.min_lon - 1.0, bbox.max_lon + 1.0, 60)
    off_lons, off_lats = [], []
    for d in (1e-9, 0.01, deg, 5.0):
        off_lons += [np.full(60, bbox.min_lon - d),
                     np.full(60, bbox.max_lon + d), across, across]
        off_lats += [side, side, np.full(60, bbox.min_lat - d),
                     np.full(60, bbox.max_lat + d)]
    odd_lons = [-70.0, -123.0, -90.0, -80.0, np.nan, -100.0, np.nan,
                np.inf, -100.0, -np.inf]
    odd_lats = [33.0, 30.0, 25.0, 43.0, 40.0, np.nan, np.nan, 40.0,
                -np.inf, 35.0]
    lons = np.concatenate([universe.cells.lons, lattice_lons,
                           *off_lons, odd_lons])
    lats = np.concatenate([universe.cells.lats, lattice_lats,
                           *off_lats, odd_lats])
    return lons, lats


class TestTileTable:
    """``assign_many`` reads a tile table; the per-point loop it
    replaced is the oracle."""

    @pytest.mark.parametrize("scale", ["tiny", "seed"])
    def test_points_off_the_tile_grid_get_no_county(self, scale):
        """Just past each edge of the tile grid, on every row and
        column, and at a NaN or infinite coordinate: no county.  A
        column past the east or west edge must not alias into the next
        or previous row's tiles."""
        from repro.data import universe_for_scale

        layer = universe_for_scale(scale).counties
        bbox, deg = layer.bbox, layer.tile_deg
        n_cols = int(np.ceil(bbox.width / deg))
        n_rows = int(np.ceil(bbox.height / deg))
        rows = bbox.min_lat + (np.arange(n_rows) + 0.5) * deg
        cols = bbox.min_lon + (np.arange(n_cols) + 0.5) * deg
        east = bbox.min_lon + n_cols * deg
        north = bbox.min_lat + n_rows * deg
        lons = np.concatenate([
            np.full(n_rows, np.nextafter(bbox.min_lon, -np.inf)),
            np.full(n_rows, east), np.full(n_rows, east + 0.5 * deg),
            cols, cols,
            [np.nan, -100.0, np.inf, -np.inf, -100.0, -100.0, np.nan]])
        lats = np.concatenate([
            rows, rows, rows,
            np.full(n_cols, np.nextafter(bbox.min_lat, -np.inf)),
            np.full(n_cols, north),
            [40.0, np.nan, 40.0, 40.0, np.inf, -np.inf, np.nan]])
        # Named (metro) boxes sit well inside the grid, so every probe
        # reaches the tile table.
        assert (layer.assign_many(lons, lats) == -1).all()
        assert layer.assign(-66.55, 43.11) == -1

    @pytest.mark.parametrize("scale", ["tiny", "seed"])
    def test_equals_the_tile_loop(self, scale):
        from repro.data import universe_for_scale

        universe = universe_for_scale(scale)
        layer = universe.counties
        lons, lats = _probe_points(universe)
        with np.errstate(invalid="ignore"):   # NaN/inf tile keys
            got = layer.assign_many(lons, lats)
            want, entry = _tile_loop_assign(layer, lons, lats)
        assert np.array_equal(got, want)
        # Every rule of the table is reached: a named box; a
        # single-entry tile, whose county box is the whole tile, so
        # the point lies in it; a later entry of a several-entry tile;
        # no entry at all.
        tile = got >= layer.n_named
        in_own_box = np.array([layer.counties[c].bbox.contains(x, y)
                               for c, x, y in zip(got[tile], lons[tile],
                                                  lats[tile])])
        assert ((got >= 0) & (got < layer.n_named)).any()
        single = entry[tile] < 0
        assert single.any() and in_own_box[single].all()
        assert (entry > 0).any()
        assert (got < 0).sum() > 100
        sample = np.arange(0, len(lons), 997)
        with np.errstate(invalid="ignore"):
            assert [layer.assign(lons[i], lats[i]) for i in sample] \
                == got[sample].tolist()
