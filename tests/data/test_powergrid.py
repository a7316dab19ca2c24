"""Tests for repro.data.powergrid."""

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.data.powergrid import build_power_grid
from repro.data.whp import WHPClass
from repro.data.wildfires import star_polygon
from repro.obs import fingerprint


@pytest.fixture(scope="module")
def grid(universe):
    return build_power_grid(universe.population, universe.cells,
                            n_substations=120, seed=3)


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


def _sha256(arr) -> str:
    return hashlib.sha256(
        np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()


def _components(n, pairs):
    """Connected components by breadth-first search, in the order of
    their lowest node."""
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            for nb in adj[queue.popleft()]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        out.append(comp)
    return out


def _dead_sites_oracle(grid, dead_subs, cut_lines):
    """Pure-Python reference: BFS the surviving line graph, energize the
    largest live component (ties to the one with the lowest substation
    index), and mark every site hanging off anything else."""
    alive = [s for s in range(grid.n_substations) if s not in dead_subs]
    index = {s: k for k, s in enumerate(alive)}
    pairs = [(index[a], index[b])
             for i, (a, b) in enumerate(grid.lines.tolist())
             if i not in cut_lines and a in index and b in index]
    comps = _components(len(alive), pairs)
    energized = ({alive[k] for k in max(comps, key=len)}
                 if comps else set())
    return np.array([sub in dead_subs or sub not in energized
                     for sub in grid.site_substation.tolist()])


def _crossing_oracle(grid, mask, x1, y1, x2, y2, step_deg):
    """The per-segment ``np.linspace`` loop the grid once ran."""
    out = []
    for a, b, c, d in zip(x1, y1, x2, y2):
        length = float(np.hypot(c - a, d - b))
        n = max(2, int(length / step_deg))
        ts = np.linspace(0.0, 1.0, n)
        rows, cols = grid.rowcol(a + ts * (c - a), b + ts * (d - b))
        ok = grid.inside(rows, cols)
        out.append(bool(ok.any() and mask[rows[ok], cols[ok]].any()))
    return np.array(out, dtype=bool)


class TestBuild:
    def test_rejects_tiny(self, universe):
        with pytest.raises(ValueError):
            build_power_grid(universe.population, universe.cells,
                             n_substations=1)

    def test_substation_count(self, grid):
        assert grid.n_substations == 120

    def test_graph_connected(self, grid):
        assert len(_components(grid.n_substations,
                               grid.lines.tolist())) == 1

    def test_lines_pinned(self, grid):
        """Sorted unique substation pairs, pinned to the line set the
        graph-backed grid built for this fixture."""
        assert grid.lines.dtype == np.int64
        assert np.array_equal(
            grid.lines, np.unique(np.sort(grid.lines, axis=1), axis=0))
        assert _sha256(grid.lines) == (
            "108538ddbe3757e4eddfb0cc2784b29c78f97bd9c338d2971737920f1b6facf2")

    def test_site_substation_pinned(self, grid):
        assert _sha256(grid.site_substation) == (
            "d904c390ef1090749dc54276c85b1ba3013fb3b743e1bc013fc6d61694aab457")

    def test_every_site_assigned(self, grid, universe):
        assert len(grid.site_substation) == len(universe.cells.sites())
        assert grid.site_substation.min() >= 0
        assert grid.site_substation.max() < grid.n_substations

    def test_assignment_is_nearest(self, grid, universe):
        sites = universe.cells.sites()
        for k in range(0, len(sites), 500):
            d2 = (grid.substation_lons - sites.lons[k]) ** 2 \
                + (grid.substation_lats - sites.lats[k]) ** 2
            assert grid.site_substation[k] == int(np.argmin(d2))

    def test_deterministic(self, universe):
        a = build_power_grid(universe.population, universe.cells,
                             n_substations=50, seed=9)
        b = build_power_grid(universe.population, universe.cells,
                             n_substations=50, seed=9)
        np.testing.assert_allclose(a.substation_lons, b.substation_lons)

    def test_fingerprint_is_content(self, universe):
        """Separately built equal grids fingerprint equal; another seed
        fingerprints differently."""
        a, b, c = (build_power_grid(universe.population, universe.cells,
                                    n_substations=50, seed=seed)
                   for seed in (9, 9, 10))
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)


class TestFailurePropagation:
    def test_no_failures_no_dead(self, grid):
        dead = grid.dead_sites(set(), set())
        assert dead.shape == grid.site_substation.shape
        assert not dead.any()
        assert np.array_equal(dead, _dead_sites_oracle(grid, set(), set()))

    def test_dead_substation_kills_its_sites(self, grid):
        sub = int(grid.site_substation[0])
        dead = grid.dead_sites({sub}, set())
        assert dead[grid.site_substation == sub].all()

    def test_cutting_all_lines_kills_everything(self, grid):
        """Every substation is its own island; the tie goes to
        substation 0, so only its sites stay live."""
        cut = set(range(grid.n_lines))
        dead = grid.dead_sites(set(), cut)
        assert np.array_equal(~dead, grid.site_substation == 0)
        assert np.array_equal(dead, _dead_sites_oracle(grid, set(), cut))

    def test_every_substation_dead(self, grid):
        subs = set(range(grid.n_substations))
        dead = grid.dead_sites(subs, set())
        assert dead.all()
        assert np.array_equal(dead, _dead_sites_oracle(grid, subs, set()))

    def test_dead_sites_match_bfs_oracle(self, grid):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n_subs = int(rng.integers(0, grid.n_substations // 4))
            n_cut = int(rng.integers(0, grid.n_lines))
            dead_subs = {int(s) for s in rng.choice(
                grid.n_substations, size=n_subs, replace=False)}
            cut = {int(i) for i in rng.choice(
                grid.n_lines, size=n_cut, replace=False)}
            assert np.array_equal(grid.dead_sites(dead_subs, cut),
                                  _dead_sites_oracle(grid, dead_subs, cut))

    def test_substations_in_polygon(self, grid, rng):
        lon = float(grid.substation_lons[0])
        lat = float(grid.substation_lats[0])
        poly = star_polygon(lon, lat, 100_000.0, rng)
        assert 0 in grid.substations_in_polygon(poly)

    def test_lines_crossing_mask(self, grid, universe):
        whp = universe.whp
        all_mask = np.ones(whp.grid.shape, dtype=bool)
        crossing = grid.lines_crossing_mask(whp, all_mask)
        assert len(crossing) == grid.n_lines
        none = grid.lines_crossing_mask(
            whp, np.zeros(whp.grid.shape, dtype=bool))
        assert len(none) == 0

    def test_feeder_cut_sites_full_mask(self, grid, universe):
        whp = universe.whp
        all_mask = np.ones(whp.grid.shape, dtype=bool)
        cut = grid.feeder_cut_sites(universe.cells, whp, all_mask)
        assert cut.shape == grid.site_substation.shape
        assert cut.all()

    def test_feeder_cut_sites_rejects_other_universe(self, grid, universe):
        other = universe.cells.subset(np.arange(len(universe.cells) // 2))
        mask = np.ones(universe.whp.grid.shape, dtype=bool)
        with pytest.raises(ValueError):
            grid.feeder_cut_sites(other, universe.whp, mask)


class TestSegmentSampler:
    """The one-pass sampler against the per-segment loops it replaced."""

    @pytest.fixture(scope="class", params=["at_risk", "high"])
    def mask(self, request, universe):
        whp = universe.whp
        if request.param == "at_risk":
            return whp.at_risk_mask()
        return whp.raster.data >= int(WHPClass.HIGH)

    def test_lines_crossing_mask_matches_loop(self, grid, universe, mask):
        a, b = grid.lines.T
        expected = _crossing_oracle(
            universe.whp.grid, mask, grid.substation_lons[a],
            grid.substation_lats[a], grid.substation_lons[b],
            grid.substation_lats[b], 0.05)
        got = grid.lines_crossing_mask(universe.whp, mask)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.flatnonzero(expected))

    def test_feeder_cut_sites_matches_loop(self, grid, universe, mask):
        sites = universe.cells.sites()
        sub = grid.site_substation
        expected = _crossing_oracle(
            universe.whp.grid, mask, sites.lons, sites.lats,
            grid.substation_lons[sub], grid.substation_lats[sub], 0.04)
        got = grid.feeder_cut_sites(universe.cells, universe.whp, mask)
        assert np.array_equal(got, expected)
