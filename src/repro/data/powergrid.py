"""Synthetic power-distribution grid.

The paper's case study (§3.2) showed that *power loss* — not equipment
damage — dominates wildfire-related cell outages, and its limitations
section (§3.11) flags "not fully accounting for risk from loss of
power" as the main gap: cell sites fail when their upstream feeder or
substation is de-energized, even when the site itself is far outside
the fire perimeter.  This substrate models the dependency chain the
authors describe studying in their follow-on work:

* **substations** placed proportionally to population (each serves a
  service area),
* **transmission lines** connecting substations (minimum spanning tree
  plus nearest-neighbor redundancy, like the highway graph),
* **feeder assignment**: every cell site depends on its nearest
  substation,
* exposure helpers: which lines cross high-WHP cells (Public Safety
  Power Shutoff candidates), which substations sit inside a fire
  perimeter.

The model is deliberately radial (no load flow): the question the
analyses ask is *which sites lose power when a line or substation is
taken out*, which a dependency graph answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.raster import Raster
from .cells import CellUniverse
from .population import PopulationSurface
from .roads import dense_mst
from .whp import WhpModel

__all__ = ["PowerGrid", "build_power_grid"]


@dataclass
class PowerGrid:
    """The synthetic grid: substations, lines, and site dependencies."""

    substation_lons: np.ndarray
    substation_lats: np.ndarray
    #: (n_lines, 2) array of substation indices, rows sorted
    lines: np.ndarray
    #: substation index per row of the universe's ``cells.sites()``
    site_substation: np.ndarray

    @property
    def n_substations(self) -> int:
        return len(self.substation_lons)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def substations_in_polygon(self, polygon) -> np.ndarray:
        """Indices of substations inside a polygon."""
        inside = polygon.contains_many(self.substation_lons,
                                       self.substation_lats)
        return np.nonzero(inside)[0]

    def lines_crossing_mask(self, whp: WhpModel, mask: np.ndarray,
                            step_deg: float = 0.05) -> np.ndarray:
        """Indices of lines that cross True cells of a WHP-grid mask.

        Lines are sampled every ``step_deg`` along their length; a line
        crosses the mask when any sample lands in a True cell.  This is
        the PSPS-candidate test: utilities de-energize lines that
        traverse high-hazard terrain.
        """
        a, b = self.lines.T
        return np.flatnonzero(_segments_cross(
            whp.grid, mask, self.substation_lons[a],
            self.substation_lats[a], self.substation_lons[b],
            self.substation_lats[b], step_deg))

    def feeder_cut_sites(self, cells: CellUniverse, whp: WhpModel,
                         mask: np.ndarray,
                         step_deg: float = 0.04) -> np.ndarray:
        """Mask over ``cells.sites()``: feeders crossing True mask cells.

        The feeder is modeled as the straight run from the site to its
        substation; fires or shutoffs anywhere along it cut the site's
        power — the §3.2 mechanism by which sites far outside a
        perimeter go dark.
        """
        sites = cells.sites()
        if len(sites) != len(self.site_substation):
            raise ValueError(
                f"grid was built on {len(self.site_substation)} sites, "
                f"the universe has {len(sites)}")
        sub = self.site_substation
        return _segments_cross(whp.grid, mask, sites.lons, sites.lats,
                               self.substation_lons[sub],
                               self.substation_lats[sub], step_deg)

    def dead_sites(self, dead_substations: set[int],
                   cut_lines: set[int]) -> np.ndarray:
        """Mask over the site table: sites without power given failed
        substations/cut lines.

        A site is dead when its substation is dead, or its substation is
        disconnected from every live generation-bearing component.  We
        treat the largest connected component of the surviving line
        graph as energized (bulk grid; a tie goes to the component
        holding the lowest substation index), matching how islanding
        plays out in a radial simplification.
        """
        alive = np.ones(self.n_substations, dtype=bool)
        alive[list(dead_substations)] = False
        kept = np.ones(self.n_lines, dtype=bool)
        kept[list(cut_lines)] = False
        a, b = self.lines[kept].T
        live = alive[a] & alive[b]
        a, b = a[live], b[live]
        # Min-label propagation: at the fixpoint every substation holds
        # the lowest index of its component.
        label = np.arange(self.n_substations)
        while True:
            before = label.copy()
            np.minimum.at(label, a, label[b])
            np.minimum.at(label, b, label[a])
            if np.array_equal(label, before):
                break
        sizes = np.bincount(label[alive], minlength=self.n_substations)
        sub = self.site_substation
        return ~alive[sub] | (label[sub] != np.argmax(sizes))


def _segments_cross(grid, mask: np.ndarray, x1: np.ndarray,
                    y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
                    step_deg: float) -> np.ndarray:
    """Which straight segments pass over a True cell of a grid mask.

    Segment ``i`` runs from ``(x1[i], y1[i])`` to ``(x2[i], y2[i])`` and
    is sampled at numpy's ``linspace(0, 1, n)`` with ``n = max(2,
    int(length / step_deg))``.  That is ``arange(n) * (1 / (n - 1))``
    with the last sample set to exactly 1.0; replaying it for every
    segment at once gives the same sample bits, then one grid lookup and
    one segmented OR give the verdicts.
    """
    dx = x2 - x1
    dy = y2 - y1
    n = np.maximum(2, (np.hypot(dx, dy) / step_deg).astype(np.int64))
    ends = np.cumsum(n)
    starts = ends - n
    seg = np.repeat(np.arange(len(n)), n)
    ts = (np.arange(n.sum()) - starts[seg]) * (1.0 / (n - 1))[seg]
    ts[ends - 1] = 1.0
    hit = Raster(grid, mask).sample(x1[seg] + ts * dx[seg],
                                    y1[seg] + ts * dy[seg])
    return np.logical_or.reduceat(hit, starts)


def build_power_grid(pop: PopulationSurface, cells: CellUniverse,
                     n_substations: int = 400, seed: int = 77,
                     k_neighbors: int = 2) -> PowerGrid:
    """Build the synthetic grid.

    Substations are drawn from the population surface (power capacity
    follows load); the line network is an MST over substations plus
    ``k_neighbors`` nearest-neighbor ties; every cell site attaches to
    its nearest substation.
    """
    if n_substations < 2:
        raise ValueError("need at least two substations")
    rng = np.random.default_rng(seed)
    sub_lons, sub_lats = pop.sample_points(n_substations, rng,
                                           exponent=0.7)

    # MST + k nearest neighbors over substations.  The full pairwise
    # distance matrix is small (n^2 floats); the MST comes from a dense
    # vectorized Prim — the Kruskal tree, since the continuous sampled
    # distances are pairwise distinct.
    d = np.hypot(sub_lons[:, None] - sub_lons[None, :],
                 sub_lats[:, None] - sub_lats[None, :])
    order = np.argsort(d, axis=1)
    edges = [np.argwhere(dense_mst(d))]
    edges += [np.column_stack((np.arange(n_substations), order[:, col]))
              for col in range(1, k_neighbors + 1)]
    lines = np.unique(np.sort(np.concatenate(edges), axis=1), axis=0)

    # Site -> nearest substation (one representative location per site).
    sites = cells.sites()
    nearest_chunks = []
    chunk = 4096
    for start in range(0, len(sites), chunk):
        sl = sites.lons[start:start + chunk][:, None]
        sa = sites.lats[start:start + chunk][:, None]
        d2 = (sl - sub_lons[None, :]) ** 2 + (sa - sub_lats[None, :]) ** 2
        nearest_chunks.append(np.argmin(d2, axis=1))
    nearest = np.concatenate(nearest_chunks) if nearest_chunks \
        else np.empty(0, dtype=np.int64)

    return PowerGrid(substation_lons=sub_lons, substation_lats=sub_lats,
                     lines=lines, site_substation=nearest)
