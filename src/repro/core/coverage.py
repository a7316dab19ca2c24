"""Coverage-loss analysis (§3.11 alternate approach).

The paper scopes itself to the *physical* threat and notes: "An
alternate approach could be to examine the wildfire threat to cellular
service coverage."  This module implements that approach: each cell
site covers a radius that shrinks with local site density (dense urban
grids are capacity-driven with small cells; rural sites reach tens of
kilometers), people are covered when any site reaches them, and losing
the at-risk sites removes coverage where no surviving neighbor
overlaps.

Outputs the quantities a regulator would ask for: population covered
before/after losing at-risk sites, and population whose *only* coverage
comes from at-risk sites (single-provider-path users — the 911 concern
of §3.10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..geo.projection import meters_per_degree
from ..geo.raster import gaussian_smooth
from ..session import artifact, register_stage, session_of

__all__ = ["CoverageResult", "coverage_loss_analysis",
           "estimate_site_radii_m"]

# Window cells evaluated per block of same-shape sites: bounds the
# block's float, bool and index temporaries (~17 bytes a cell) at any
# site count; each cell's arithmetic does not depend on the blocking.
STAMP_TILE_CELLS = 1 << 20


def estimate_site_radii_m(universe: SyntheticUS,
                          min_radius_m: float = 1_500.0,
                          max_radius_m: float = 40_000.0) -> np.ndarray:
    """Coverage radius per *site* from the local synthetic site density.

    Radius ~ 0.8x the local area-per-site square root, so coverage is
    scale-invariant: sites cover roughly their Voronoi neighborhoods at
    any ``n_transceivers``, with urban macro cells clamped near
    ``min_radius_m`` and remote sites reaching ``max_radius_m``.
    Returns radii aligned with ``cells.sites()``.
    """
    return session_of(universe).artifact("site_radii",
                                         min_radius_m=min_radius_m,
                                         max_radius_m=max_radius_m)


@artifact("site_radii")
def _compute_site_radii(session, min_radius_m: float = 1_500.0,
                        max_radius_m: float = 40_000.0) -> np.ndarray:
    """Per-site coverage radius from local site density."""
    universe = session.universe
    sites = universe.cells.sites()
    pop = universe.population
    grid = pop.grid

    rows, cols = grid.rowcol(sites.lons, sites.lats)
    ok = grid.inside(rows, cols)
    counts = np.bincount(rows[ok] * grid.width + cols[ok],
                         minlength=grid.height * grid.width)
    smoothed = gaussian_smooth(counts.reshape(grid.shape), sigma=2.0)

    density = smoothed[np.clip(rows, 0, grid.height - 1),
                       np.clip(cols, 0, grid.width - 1)]
    cell_area = grid.cell_area_sqm(grid.height // 2)
    area_per_site = cell_area / np.clip(density, 1e-3, None)
    radius = 0.8 * np.sqrt(area_per_site)
    return np.clip(radius, min_radius_m, max_radius_m)


@dataclass
class CoverageResult:
    """Coverage before/after losing the at-risk sites."""

    population_total: float
    population_covered_before: float
    population_covered_after: float
    population_lost: float
    population_only_at_risk: float  # same as lost; kept for clarity
    sites_total: int
    sites_lost: int

    @property
    def covered_share_before(self) -> float:
        return self.population_covered_before / self.population_total

    @property
    def lost_share(self) -> float:
        return self.population_lost / self.population_total


def coverage_loss_analysis(universe: SyntheticUS,
                           hazard_floor: WHPClass = WHPClass.MODERATE) \
        -> CoverageResult:
    """Population coverage impact of losing every at-risk site.

    Coverage is computed on the population grid: a cell is covered when
    some site's radius reaches its center.  Sites whose WHP class (max
    over their transceivers) is at or above ``hazard_floor`` are
    removed, and the newly-uncovered population counted.
    """
    return session_of(universe).artifact("coverage",
                                         hazard_floor=hazard_floor)


@artifact("coverage", deps=("whp_classes", "site_radii"))
def _compute_coverage(
        session,
        hazard_floor: WHPClass = WHPClass.MODERATE) -> CoverageResult:
    """S3.11 population-coverage impact of losing at-risk sites."""
    universe = session.universe
    cells = universe.cells
    pop = universe.population
    classes = session.artifact("whp_classes")

    sites = cells.sites()
    radii = session.artifact("site_radii")

    # Site hazard: max class over the site's transceivers.  Each site
    # is stamped once: OR is order-free, so the surviving sites' mask
    # plus the at-risk stamps is the mask over every site.
    at_risk = sites.max(classes) >= int(hazard_floor)
    safe = ~at_risk
    covered_after = _coverage_mask(pop, sites.lons[safe], sites.lats[safe],
                                   radii[safe])
    covered_before = covered_after | _coverage_mask(
        pop, sites.lons[at_risk], sites.lats[at_risk], radii[at_risk])

    weights = pop.raster.data
    total = float(weights.sum())
    before = float(weights[covered_before].sum())
    after = float(weights[covered_after].sum())
    lost = float(weights[covered_before & ~covered_after].sum())

    return CoverageResult(
        population_total=total,
        population_covered_before=before,
        population_covered_after=after,
        population_lost=lost,
        population_only_at_risk=lost,
        sites_total=len(sites),
        sites_lost=int(at_risk.sum()),
    )


def _coverage_mask(pop, site_lons, site_lats, radii_m) -> np.ndarray:
    """Boolean population-grid mask of cells within any site's radius.

    Each site covers the cells of its clamped grid window whose centres
    fall in its ellipse (lon/lat anisotropy at the site's latitude).
    Sites are grouped by window shape ``(rows, cols)`` and each group is
    evaluated in blocks of at most ``STAMP_TILE_CELLS`` window cells
    with the same float expression per cell; OR does not depend on
    order, so every covered cell of a block is set with one scatter.
    """
    grid = pop.grid
    width = grid.width
    covered = np.zeros(grid.height * width, dtype=bool)
    site_lons = np.asarray(site_lons, dtype=float)
    site_lats = np.asarray(site_lats, dtype=float)
    radii_m = np.asarray(radii_m, dtype=float)
    _, m_lat = meters_per_degree(0.0)
    m_lon = m_lat * np.cos(np.radians(site_lats))
    rlons = radii_m / m_lon
    rlats = radii_m / m_lat
    rows0, cols0 = grid.rowcol(site_lons - rlons, site_lats + rlats)
    rows1, cols1 = grid.rowcol(site_lons + rlons, site_lats - rlats)
    rows0 = np.maximum(rows0, 0)
    cols0 = np.maximum(cols0, 0)
    n_rows = np.minimum(rows1, grid.height - 1) - rows0 + 1
    n_cols = np.minimum(cols1, width - 1) - cols0 + 1
    stamped = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    shape_key = n_rows[stamped] * (width + 1) + n_cols[stamped]
    order = np.argsort(shape_key, kind="stable")
    stamped = stamped[order]
    bounds = np.flatnonzero(np.diff(shape_key[order])) + 1
    # The grid is separable (lon depends on col only, lat on row only),
    # so the ellipse test is an outer sum of two 1-D terms per site
    # over the cell-center axes — no 2-D center arrays.
    center_lons, center_lats = grid.axes()
    for group in np.split(stamped, bounds):
        if not len(group):
            continue
        rows_n = int(n_rows[group[0]])
        cols_n = int(n_cols[group[0]])
        step = max(1, STAMP_TILE_CELLS // (rows_n * cols_n))
        for t0 in range(0, len(group), step):
            block = group[t0:t0 + step]
            rows = rows0[block, None] + np.arange(rows_n)
            cols = cols0[block, None] + np.arange(cols_n)
            u = ((center_lons[cols] - site_lons[block, None])
                 / rlons[block, None]) ** 2
            v = ((center_lats[rows] - site_lats[block, None])
                 / rlats[block, None]) ** 2
            inside = (u[:, None, :] + v[:, :, None]) <= 1.0
            cells = rows[:, :, None] * width + cols[:, None, :]
            covered[cells[inside]] = True
    return covered.reshape(grid.shape)


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

register_stage("coverage", help="coverage loss (S3.11)",
               paper="§3.11", artifact="coverage",
               render="render_coverage", order=140,
               domain="infrastructure")
