"""Future wildfire risk from climate change (§3.9, Figures 14–15).

Overlays the Salt Lake City–Denver corridor ecoregions (with Littell et
al. projected changes in area burned) with cellular infrastructure and
the current WHP, producing the per-ecoregion exposure table behind
Figures 14 and 15: how many transceivers sit in each ecoregion, how many
of those are already at risk, and what the projected 2040s/2080s change
implies for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.ecoregions import slc_denver_ecoregions, slc_denver_window
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass, class_counts
from ..geo.geometry import first_containing
from ..session import artifact, register_stage, session_of

__all__ = ["EcoregionExposure", "future_risk_analysis"]


@dataclass(frozen=True)
class EcoregionExposure:
    """One ecoregion's infrastructure exposure (scaled counts)."""

    code: str
    name: str
    delta_2040_pct: float
    delta_2080_pct: float
    transceivers: int
    at_risk_transceivers: int       # currently WHP moderate+
    projected_at_risk_2040: int     # at-risk scaled by (1 + delta)

    @property
    def increasing(self) -> bool:
        return self.delta_2040_pct > 0


def future_risk_analysis(universe: SyntheticUS) -> list[EcoregionExposure]:
    """Per-ecoregion exposure in the SLC–Denver window.

    ``projected_at_risk_2040`` applies the ecoregion's projected change
    in area burned to the currently at-risk count as a first-order
    exposure index (clamped at zero for decreasing regions).
    """
    return session_of(universe).artifact("future_risk")


@artifact("future_risk", deps=("whp_classes",))
def _compute_future_risk(session) -> list[EcoregionExposure]:
    """S3.9 per-ecoregion exposure in the SLC-Denver window."""
    universe = session.universe
    cells = universe.cells
    classes = session.artifact("whp_classes")
    regions = slc_denver_ecoregions()
    # The rectangles partition the window under the vector kernel, so
    # each cell is in at most one region and the first-wins code is it.
    idx = np.flatnonzero(slc_denver_window().contains_many(cells.lons,
                                                           cells.lats))
    region_of = np.full(len(cells), -1, dtype=np.int64)
    region_of[idx] = first_containing([r.polygon for r in regions],
                                      cells.lons[idx], cells.lats[idx])
    counts = class_counts(region_of, len(regions), classes)

    rows = []
    for region, row in zip(regions, counts):
        n = universe.scaled(row.sum())
        at_risk = universe.scaled(int(row[int(WHPClass.MODERATE):].sum()))
        projected = int(round(
            max(at_risk * (1.0 + region.delta_2040_pct / 100.0), 0.0)))
        rows.append(EcoregionExposure(
            code=region.code,
            name=region.name,
            delta_2040_pct=region.delta_2040_pct,
            delta_2080_pct=region.delta_2080_pct,
            transceivers=n,
            at_risk_transceivers=at_risk,
            projected_at_risk_2040=projected,
        ))
    rows.sort(key=lambda r: -r.delta_2040_pct)
    return rows


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

def _export_ecoregions(session, ctx) -> dict:
    from dataclasses import asdict

    from ..data import paper_constants as paper
    return {"ecoregions_s39": {
        "rows": [asdict(r) for r in session.artifact("future_risk")],
        "paper_deltas": paper.ECOREGION_DELTAS,
    }}


register_stage("ecoregions", help="SLC-Denver projections (Figs 14-15)",
               paper="Figures 14-15", artifact="future_risk",
               render="render_ecoregions", order=100, domain="figures",
               export=_export_ecoregions)
