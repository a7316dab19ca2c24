"""FCC DIRS outage-report simulator (2019 California case study, §3.2).

The FCC activated the Disaster Information Reporting System for 37
California counties from 25 October to 1 November 2019 while PG&E ran
Public Safety Power Shutoffs (PSPS) and the Kincade/Getty fires burned.
We simulate the system the reports describe:

* counties get PSPS de-energization windows (start day, duration),
* a fraction of each de-energized county's cell sites loses grid power;
  on-site batteries last hours, not days, so at daily resolution a
  de-energized site is *out* (the paper's central finding: >80% of
  outages were power, not damage),
* sites inside fire perimeters can be damaged (out for the whole window
  and beyond) and nearby fiber laterals can be cut (backhaul outages,
  repaired in a couple of days),
* restorations follow the PSPS windows, so outages fall off after the
  peak but do not reach zero by 1 November.

Daily outputs mirror the DIRS summary: sites out by cause.  The
calibration targets are the paper's anchors — peak 874 sites out on
28 Oct (702 = 80% power), 110 still out on 1 Nov including 21 damaged —
expressed as *fractions* of the region's sites so they scale with the
synthetic universe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.geometry import BBox
from .cells import CellUniverse
from .wildfires import FirePerimeter

__all__ = ["DirsDailyReport", "DirsSimulation", "simulate_dirs",
           "DIRS_REPORT_DAYS", "DIRS_REGION"]

#: Reporting days: 25 October .. 1 November 2019 (day-of-year 298..305).
DIRS_REPORT_DAYS = tuple(range(298, 306))

#: The 37-county DIRS activation region (Northern & Southern CA).
DIRS_REGION = BBox(-124.4, 32.5, -118.0, 42.0)


@dataclass(frozen=True)
class DirsDailyReport:
    """One day's DIRS summary."""

    doy: int
    sites_out_power: int
    sites_out_backhaul: int
    sites_out_damage: int

    @property
    def sites_out_total(self) -> int:
        return (self.sites_out_power + self.sites_out_backhaul
                + self.sites_out_damage)


@dataclass
class DirsSimulation:
    """Full simulation output."""

    reports: list[DirsDailyReport]
    n_region_sites: int
    #: lon/lat of every region site and whether it was ever out
    site_lons: "np.ndarray | None" = None
    site_lats: "np.ndarray | None" = None
    ever_out: "np.ndarray | None" = None

    def peak(self) -> DirsDailyReport:
        return max(self.reports, key=lambda r: r.sites_out_total)

    def final(self) -> DirsDailyReport:
        return self.reports[-1]

    def scaled_reports(self, universe_scale: float) -> list[dict]:
        """Reports rescaled to the paper's 5.36M-transceiver universe."""
        out = []
        for r in self.reports:
            out.append({
                "doy": r.doy,
                "power": int(round(r.sites_out_power * universe_scale)),
                "backhaul": int(round(r.sites_out_backhaul
                                      * universe_scale)),
                "damage": int(round(r.sites_out_damage * universe_scale)),
            })
        return out


def simulate_dirs(cells: CellUniverse, fires: list[FirePerimeter],
                  seed: int = 25,
                  psps_site_fraction: float = 0.014,
                  backhaul_fraction: float = 0.004,
                  damage_fraction_in_perimeter: float = 0.08) \
        -> DirsSimulation:
    """Run the daily outage simulation.

    Parameters
    ----------
    cells:
        The transceiver universe; sites within :data:`DIRS_REGION`
        participate.
    fires:
        2019 fire perimeters (the Kincade-like fire drives damage).
    psps_site_fraction:
        Fraction of region sites de-energized at the event peak
        (0.029 reproduces the paper's scaled peak of ~874 sites).
    backhaul_fraction:
        Fraction of region sites losing fiber backhaul during the event.
    damage_fraction_in_perimeter:
        Probability a site inside an active fire perimeter is damaged.
    """
    rng = np.random.default_rng(seed)

    in_region = DIRS_REGION.contains_many(cells.lons, cells.lats)
    region_sites, site_first = np.unique(cells.site_ids[in_region],
                                         return_index=True)
    region_idx = np.nonzero(in_region)[0][site_first]
    site_lons = cells.lons[region_idx]
    site_lats = cells.lats[region_idx]
    n_sites = len(region_sites)
    if n_sites == 0:
        return DirsSimulation(
            reports=[DirsDailyReport(d, 0, 0, 0) for d in DIRS_REPORT_DAYS],
            n_region_sites=0,
            site_lons=np.empty(0), site_lats=np.empty(0),
            ever_out=np.empty(0, dtype=bool))

    # --- PSPS power outages -------------------------------------------
    # Each affected site gets a de-energization window.  Windows cluster
    # so that the aggregate peaks on 28 October (doy 301), as observed.
    n_psps = int(round(n_sites * psps_site_fraction / 0.8))
    psps_sites = rng.choice(n_sites, size=min(n_psps, n_sites),
                            replace=False)
    # Window starts weighted toward the first event days; durations 1-5
    # days with a tail (some sites stayed out the whole period).
    start_choices = np.array([298, 299, 300, 301, 302])
    start_weights = np.array([0.10, 0.18, 0.27, 0.33, 0.12])
    starts = rng.choice(start_choices, size=len(psps_sites),
                        p=start_weights)
    durations = 1 + rng.geometric(0.42, size=len(psps_sites))
    power_out = np.zeros((len(DIRS_REPORT_DAYS), n_sites), dtype=bool)
    for k, doy in enumerate(DIRS_REPORT_DAYS):
        active = (starts <= doy) & (doy < starts + durations)
        power_out[k, psps_sites] = active

    # --- fire damage ---------------------------------------------------
    damaged = np.zeros(n_sites, dtype=bool)
    damage_start = np.full(n_sites, 10_000)
    for fire in fires:
        if fire.year != 2019:
            continue
        inside = fire.polygon.contains_many(site_lons, site_lats)
        candidates = np.nonzero(inside)[0]
        if len(candidates) == 0:
            continue
        hit = candidates[rng.random(len(candidates))
                         < damage_fraction_in_perimeter]
        damaged[hit] = True
        damage_start[hit] = np.minimum(damage_start[hit],
                                       max(fire.start_doy, 298))

    # --- backhaul cuts ---------------------------------------------------
    n_backhaul = int(round(n_sites * backhaul_fraction))
    backhaul_sites = rng.choice(n_sites, size=min(n_backhaul, n_sites),
                                replace=False)
    bh_starts = rng.choice(np.array([299, 300, 301]),
                           size=len(backhaul_sites))
    bh_durations = 1 + rng.geometric(0.5, size=len(backhaul_sites))

    backhaul_out = np.zeros((len(DIRS_REPORT_DAYS), n_sites), dtype=bool)
    for k, doy in enumerate(DIRS_REPORT_DAYS):
        active = (bh_starts <= doy) & (doy < bh_starts + bh_durations)
        backhaul_out[k, backhaul_sites] = active

    # --- daily reports (damage dominates other causes for a site) ------
    reports = []
    ever_out = np.zeros(n_sites, dtype=bool)
    for k, doy in enumerate(DIRS_REPORT_DAYS):
        dmg = damaged & (damage_start <= doy)
        pwr = power_out[k] & ~dmg
        bh = backhaul_out[k] & ~dmg & ~pwr
        ever_out |= dmg | pwr | bh
        reports.append(DirsDailyReport(
            doy=doy,
            sites_out_power=int(pwr.sum()),
            sites_out_backhaul=int(bh.sum()),
            sites_out_damage=int(dmg.sum()),
        ))
    return DirsSimulation(reports=reports, n_region_sites=n_sites,
                          site_lons=site_lons, site_lats=site_lats,
                          ever_out=ever_out)
