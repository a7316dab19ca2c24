"""WHP validation against the 2019 fire season (§3.4).

The paper checks whether the 2018 WHP would have predicted the cell
transceivers that ended up inside 2019 wildfire perimeters: 302 of 656
(46%) were in moderate+ WHP cells, and 288 of the 354 misses lay inside
just two Los Angeles fires (Saddle Ridge and Tick) whose footprints
covered roads and urban fringe that WHP scores as low-risk/non-burnable.
Excluding those two fires, accuracy is 84%.

Being inside a 2019 perimeter is a ~1e-4 event per transceiver, so at
synthetic test scales the raw counts are single digits.  The validation
therefore runs on an oversampled transceiver universe (same generator,
distinct seed) — an unbiased variance-reduction; counts are rescaled by
the matching factor.  The stage treats it as a rare-event join: it
draws only the sample's coordinates, joins only the points near a 2019
perimeter and classifies only the points inside one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..data.wildfires import SCRIPTED_LA_FIRES_2019
from ..geo.raster import Raster
from ..session import (
    StageOption,
    artifact,
    positive_int,
    register_stage,
    session_of,
)
from .overlay import FireOverlayResult, classify_cells, overlay_fires

__all__ = ["ValidationResult", "validate_whp_2019"]


@dataclass
class ValidationResult:
    """Outcome of the §3.4 validation (raw counts at oversampled scale)."""

    in_perimeter_total: int          # transceivers inside 2019 fires
    predicted_at_risk: int           # of those, in WHP moderate+
    missed: int
    missed_in_la_fires: int          # misses inside Saddle Ridge/Tick
    in_la_fires_total: int
    universe_scale: float            # scale factor incl. oversampling

    @property
    def accuracy(self) -> float:
        """Fraction of in-perimeter transceivers predicted at-risk."""
        if self.in_perimeter_total == 0:
            return float("nan")
        return self.predicted_at_risk / self.in_perimeter_total

    @property
    def accuracy_excluding_la(self) -> float:
        """Accuracy after discarding the two LA-fringe fires."""
        denom = self.in_perimeter_total - self.in_la_fires_total
        if denom <= 0:
            return float("nan")
        hits_outside = self.predicted_at_risk - (
            self.in_la_fires_total - self.missed_in_la_fires)
        return hits_outside / denom

    def scaled(self, value: int) -> int:
        """Rescale a raw count to the paper's 5.36M universe."""
        return int(round(value * self.universe_scale))


def validate_whp_2019(universe: SyntheticUS,
                      at_risk_floor: WHPClass = WHPClass.MODERATE,
                      at_risk_mask_override: np.ndarray | None = None,
                      oversample: int = 8) -> ValidationResult:
    """Run the validation.

    ``at_risk_mask_override`` lets the §3.8 extension experiment reuse
    the machinery with a dilated at-risk raster mask (boolean over the
    WHP grid).  ``oversample`` multiplies the validation sample size.
    """
    session = session_of(universe)
    if at_risk_mask_override is None:
        return session.artifact("validation",
                                at_risk_floor=at_risk_floor,
                                oversample=oversample)
    return _compute_validation(session, at_risk_floor,
                               at_risk_mask_override, oversample)


def _compute_validation(session, at_risk_floor: WHPClass,
                        at_risk_mask_override: np.ndarray | None,
                        oversample: int) -> ValidationResult:
    universe = session.universe
    overlay = session.artifact("validation_overlay",
                               oversample=oversample)
    in_fire = np.flatnonzero(overlay.in_perimeter_mask)
    # Only in-perimeter points are read below, so only they are
    # classified (or sampled against the override).
    inside = universe.validation_cells(oversample).subset(in_fire)

    whp = universe.whp
    if at_risk_mask_override is not None:
        predicted = Raster(whp.grid, at_risk_mask_override).sample(
            inside.lons, inside.lats)
    else:
        predicted = classify_cells(inside, whp) >= int(at_risk_floor)

    in_la = np.zeros(len(overlay.in_perimeter_mask), dtype=bool)
    for name, hits in overlay.per_fire_hits.items():
        if name in SCRIPTED_LA_FIRES_2019:
            in_la[hits] = True
    in_la = in_la[in_fire]

    return ValidationResult(
        in_perimeter_total=len(in_fire),
        predicted_at_risk=int(predicted.sum()),
        missed=int((~predicted).sum()),
        missed_in_la_fires=int((~predicted & in_la).sum()),
        in_la_fires_total=int(in_la.sum()),
        universe_scale=universe.universe_scale / oversample,
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("validation_overlay")
def _validation_overlay_artifact(session, oversample: int = 8) \
        -> FireOverlayResult:
    """2019 perimeters joined against the oversampled validation
    universe (shared by the S3.4 validation and the S3.8 extension).

    Only points in a WHP-grid cell that some fire's bbox touches can
    lie inside a fire, so only those are joined; the mask and the
    per-fire hits are lifted back to indices into the whole sample.
    """
    universe = session.universe
    points = universe.validation_cells(oversample)
    fires = universe.fire_season(2019).fires
    grid = universe.whp.grid
    boxes = Raster(grid, grid.box_mask(f.polygon.bbox for f in fires))
    near = np.flatnonzero(boxes.sample(points.lons, points.lats,
                                       outside=True))
    joined = overlay_fires(points.subset(near), fires, year=2019)
    mask = np.zeros(len(points), dtype=bool)
    mask[near[joined.in_perimeter_mask]] = True
    return FireOverlayResult(
        year=joined.year, n_fires=joined.n_fires, in_perimeter_mask=mask,
        per_fire_counts=joined.per_fire_counts,
        per_fire_hits={name: near[hits]
                       for name, hits in joined.per_fire_hits.items()})


@artifact("validation", deps=("validation_overlay",))
def _validation_artifact(session,
                         at_risk_floor: WHPClass = WHPClass.MODERATE,
                         oversample: int = 8) -> ValidationResult:
    """S3.4 validation of the WHP against the 2019 fire season."""
    return _compute_validation(session, at_risk_floor, None, oversample)


def _export_validation(session, ctx) -> dict:
    from ..data import paper_constants as paper
    validation = session.artifact(
        "validation", oversample=ctx.get("validation_oversample", 8))
    return {"validation_s34": {
        "in_perimeter_total": validation.in_perimeter_total,
        "accuracy": validation.accuracy,
        "missed_in_la_fires": validation.missed_in_la_fires,
        "missed": validation.missed,
        "paper": paper.VALIDATION_2019,
    }}


register_stage("validate", help="2019 WHP validation (S3.4)",
               paper="§3.4", artifact="validation",
               render="render_validation", order=110, domain="validation",
               options=(StageOption("--oversample", type=positive_int,
                                    default=8),),
               export=_export_validation)
