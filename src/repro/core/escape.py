"""Escape-probability extension (§3.11 future work).

The paper notes WHP does not model the chance that a fire *escapes*
containment and spreads into lower-risk areas, and points to the highly
optimized tolerance (HOT) framework of Moritz et al. (2005), which
models wildfire sizes as a heavy-tailed (power-law) distribution.

This module implements that extension: given an ignition cell, the fire
burns an area drawn from a truncated power law; the expected *escaped
risk* of a cell is the probability that a fire ignited nearby grows
large enough to reach it.  Applied over the WHP raster this produces an
"escape-adjusted" at-risk mask that extends beyond the static classes —
quantifying how many additional transceivers the static WHP analysis
misses, which is exactly the gap the §3.4 validation exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..geo.projection import acres_to_sqmeters
from ..geo.raster import Raster
from ..session import artifact, register_stage, session_of

__all__ = ["EscapeModel", "EscapeResult", "escape_adjusted_risk"]


@dataclass(frozen=True)
class EscapeModel:
    """Truncated power-law fire-size model (HOT-style).

    P(size > s) = (s / s_min)^(-alpha) for s in [s_min, s_max] acres.
    """

    alpha: float = 0.6
    s_min_acres: float = 100.0
    s_max_acres: float = 300_000.0

    def exceedance(self, acres: float) -> float:
        """P(fire size > acres), clamped to the support."""
        if acres <= self.s_min_acres:
            return 1.0
        if acres >= self.s_max_acres:
            return 0.0
        return float((acres / self.s_min_acres) ** (-self.alpha))

    def radius_m(self, acres: float) -> float:
        """Radius of a circular fire of the given size."""
        return float(np.sqrt(acres_to_sqmeters(acres) / np.pi))


@dataclass
class EscapeResult:
    """Escape-adjusted risk over the transceiver universe."""

    reach_probability_threshold: float
    escaped_mask: np.ndarray           # cells newly at risk via escape
    static_at_risk: int                # scaled
    escape_adjusted_at_risk: int       # scaled
    added_transceivers: int            # scaled


def escape_adjusted_risk(universe: SyntheticUS,
                         model: EscapeModel | None = None,
                         reach_probability: float = 0.05) -> EscapeResult:
    """Compute the escape-adjusted at-risk set.

    A cell is escape-reachable when a fire igniting in a moderate+ WHP
    cell within distance d reaches it with probability above
    ``reach_probability`` — i.e. d <= radius(s) where
    P(size > s) = reach_probability.  With a power law this is a fixed
    dilation radius, so the computation is a morphological dilation of
    the at-risk mask by the escape radius.
    """
    return session_of(universe).artifact(
        "escape", model=model or EscapeModel(),
        reach_probability=reach_probability)


def _compute_escape(session, model: EscapeModel,
                    reach_probability: float) -> EscapeResult:
    universe = session.universe
    whp = universe.whp
    cells = universe.cells

    # Size whose exceedance equals the reach probability.
    s_reach = model.s_min_acres * reach_probability ** (-1.0 / model.alpha)
    s_reach = min(s_reach, model.s_max_acres)
    radius = model.radius_m(s_reach)

    at_risk_mask = whp.at_risk_mask()
    reachable = whp.raster.dilate_mask(at_risk_mask, radius, min_cells=1.0)
    land = whp.fuel.data > 0
    reachable &= land

    classes = session.artifact("whp_classes")
    static = classes >= int(WHPClass.MODERATE)
    adjusted = static | Raster(whp.grid, reachable).sample(cells.lons,
                                                           cells.lats)

    return EscapeResult(
        reach_probability_threshold=reach_probability,
        escaped_mask=reachable & ~at_risk_mask,
        static_at_risk=universe.scaled(static.sum()),
        escape_adjusted_at_risk=universe.scaled(adjusted.sum()),
        added_transceivers=universe.scaled((adjusted & ~static).sum()),
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("escape", deps=("whp_classes",))
def _escape_artifact(session, model: EscapeModel | None = None,
                     reach_probability: float = 0.05) -> EscapeResult:
    """Escape-adjusted (HOT power-law) at-risk set."""
    return _compute_escape(session, model or EscapeModel(),
                           reach_probability)


register_stage("escape", help="escape-adjusted risk (HOT model)",
               paper="§3.11", artifact="escape", render="render_escape",
               domain="infrastructure")
