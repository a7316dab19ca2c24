"""One entry point per paper figure.

Each ``figureN`` function returns a :class:`FigureArtifact` holding the
plottable data series plus an ASCII rendering, so the benchmarks can
both assert on the data and print something a human can eyeball against
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import (
    case_study_analysis,
    future_risk_analysis,
    hazard_analysis,
    metro_risk_analysis,
    population_impact_analysis,
    total_in_perimeters,
)
from ..data.ecoregions import slc_denver_window
from ..data.universe import SyntheticUS
from ..data.whp import WHPClass
from ..geo.geometry import BBox
from ..session import session_of
from .ascii import bar_chart, class_map, density_map

__all__ = [
    "FigureArtifact",
    "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
    "figure8", "figure9", "figure10", "figure11", "figure12", "figure13",
    "figure14", "figure15",
]

#: Symbols for WHP classes in ASCII maps (paper Figure 6 palette).
WHP_SYMBOLS = {0: " ", 1: ".", 2: ":", 3: "m", 4: "H", 5: "#"}


@dataclass
class FigureArtifact:
    """A reproduced figure: data series + ASCII rendering."""

    figure: str
    title: str
    data: Any
    ascii_art: str = field(repr=False, default="")


def figure2(universe: SyntheticUS, width: int = 110) -> FigureArtifact:
    """All cell transceivers in the conterminous US."""
    cells = universe.cells
    art = density_map(cells.lons, cells.lats,
                      universe.population.grid.bbox, width=width)
    return FigureArtifact("2", "All cell transceivers",
                          {"n": len(cells)}, art)


def figure3(universe: SyntheticUS, width: int = 110) -> FigureArtifact:
    """Wildfire perimeters 2000-2018 (centroid density)."""
    lons, lats, acres = [], [], 0.0
    for year in range(2000, 2019):
        for fire in universe.fire_season(year).fires:
            c = fire.polygon.centroid()
            lons.append(c.lon)
            lats.append(c.lat)
            acres += fire.acres
    art = density_map(np.array(lons), np.array(lats),
                      universe.population.grid.bbox, width=width)
    return FigureArtifact("3", "Wildfire perimeters 2000-2018",
                          {"n_fires": len(lons), "acres": acres}, art)


def figure4(universe: SyntheticUS, width: int = 110) -> FigureArtifact:
    """Transceivers inside wildfire perimeters 2000-2018."""
    scaled, mask = total_in_perimeters(universe)
    cells = universe.cells
    art = density_map(cells.lons[mask], cells.lats[mask],
                      universe.population.grid.bbox, width=width)
    return FigureArtifact("4", "Transceivers in wildfire perimeters",
                          {"scaled_total": scaled,
                           "raw_total": int(mask.sum())}, art)


def figure5(universe: SyntheticUS) -> FigureArtifact:
    """Daily cell-site outages by cause (2019 case study)."""
    summary = case_study_analysis(universe)
    series = {"days": summary.days, "power": summary.power,
              "backhaul": summary.backhaul, "damage": summary.damage}
    art = bar_chart(summary.days, summary.totals())
    return FigureArtifact("5", "Cell site outages during PG&E blackouts",
                          series, art)


def figure6(universe: SyntheticUS, width: int = 110) -> FigureArtifact:
    """The WHP map."""
    whp = universe.whp
    art = class_map(whp.raster.data, whp.grid, WHP_SYMBOLS, width=width)
    return FigureArtifact("6", "Wildfire Hazard Potential",
                          whp.raster.histogram(), art)


def _class_panel(universe: SyntheticUS, whp_class: WHPClass,
                 width: int) -> str:
    cells = universe.cells
    classes = session_of(universe).artifact("whp_classes")
    mask = classes == int(whp_class)
    return density_map(cells.lons[mask], cells.lats[mask],
                       universe.population.grid.bbox, width=width)


def figure7(universe: SyntheticUS, width: int = 72) -> FigureArtifact:
    """Transceivers in Moderate / High / Very High WHP (three panels)."""
    summary = hazard_analysis(universe)
    panels = "\n\n".join(
        f"[{name}]\n" + _class_panel(universe, cls, width)
        for name, cls in (("Moderate", WHPClass.MODERATE),
                          ("High", WHPClass.HIGH),
                          ("Very High", WHPClass.VERY_HIGH)))
    return FigureArtifact("7", "Transceivers by WHP class",
                          summary.class_counts, panels)


def figure8(universe: SyntheticUS, n: int = 10) -> FigureArtifact:
    """States with the most at-risk transceivers."""
    summary = hazard_analysis(universe)
    top = summary.states[:n]
    art = bar_chart([s.state for s in top], [s.total for s in top])
    return FigureArtifact(
        "8", "States with most at-risk transceivers",
        {s.state: s.total for s in top}, art)


def figure9(universe: SyntheticUS, n: int = 10) -> FigureArtifact:
    """At-risk transceivers per capita by state."""
    summary = hazard_analysis(universe)
    ranked = sorted(summary.states, key=lambda s: s.per_thousand(),
                    reverse=True)[:n]
    art = bar_chart([s.state for s in ranked],
                    [s.per_thousand() for s in ranked])
    return FigureArtifact(
        "9", "At-risk transceivers per thousand people",
        {s.state: s.per_thousand() for s in ranked}, art)


def figure10(universe: SyntheticUS) -> FigureArtifact:
    """WHP class × county density matrix."""
    impact = population_impact_analysis(universe)
    rows = []
    for whp_name, row in impact.matrix.items():
        for cat, count in row.items():
            rows.append((whp_name, cat, count))
    art = bar_chart([f"{w[:9]}/{c.split(' ')[0]}" for w, c, _ in rows],
                    [v for _, _, v in rows])
    return FigureArtifact("10", "Transceivers by WHP and density",
                          impact.matrix, art)


def figure11(universe: SyntheticUS, width: int = 72) -> FigureArtifact:
    """Three map panels: at-risk × population density subsets."""
    impact = population_impact_analysis(universe)
    cells = universe.cells
    bbox = universe.population.grid.bbox
    panels = []
    for title, mask in (
            ("WHP M+ x county >200k", impact.panel_all_mask),
            ("WHP M+ x county >1.5M", impact.panel_vh_pop_mask),
            ("WHP VH x county >1.5M", impact.panel_vh_both_mask)):
        panels.append(f"[{title}: {int(mask.sum())} raw]\n"
                      + density_map(cells.lons[mask], cells.lats[mask],
                                    bbox, width=width))
    counts = {
        "all": int(impact.panel_all_mask.sum()),
        "vh_pop": int(impact.panel_vh_pop_mask.sum()),
        "vh_both": int(impact.panel_vh_both_mask.sum()),
    }
    return FigureArtifact("11", "At-risk transceivers by density subset",
                          counts, "\n\n".join(panels))


def figure12(universe: SyntheticUS) -> FigureArtifact:
    """Metro areas with the most at-risk transceivers."""
    rows = metro_risk_analysis(universe)
    art = bar_chart([r.metro for r in rows], [r.total for r in rows])
    return FigureArtifact("12", "Metro at-risk ranking",
                          {r.metro: r.total for r in rows}, art)


def _metro_window(universe: SyntheticUS, center_lon: float,
                  center_lat: float, half: float, width: int) -> str:
    whp = universe.whp
    bbox = BBox(center_lon - half, center_lat - half,
                center_lon + half, center_lat + half)
    return class_map(whp.raster.data, whp.grid, WHP_SYMBOLS,
                     bbox=bbox, width=width)


def figure13(universe: SyntheticUS, width: int = 64) -> FigureArtifact:
    """WHP windows around SF/Sacramento, LA/SD, Orlando."""
    from ..data.cities import city_by_name

    windows = {
        "San Francisco/Sacramento": ("San Francisco", 2.2),
        "Los Angeles/San Diego": ("Los Angeles", 2.2),
        "Orlando": ("Orlando", 1.6),
    }
    panels = []
    data = {}
    for title, (city_name, half) in windows.items():
        city = city_by_name(city_name)
        art = _metro_window(universe, city.lon + half / 4,
                            city.lat - half / 4, half, width)
        panels.append(f"[{title}]\n{art}")
        data[title] = (city.lon, city.lat, half)
    return FigureArtifact("13", "Metro WHP windows", data,
                          "\n\n".join(panels))


def figure14(universe: SyntheticUS) -> FigureArtifact:
    """Ecoregion 2040 deltas with corridor infrastructure."""
    rows = future_risk_analysis(universe)
    art = bar_chart([r.code for r in rows],
                    [r.transceivers for r in rows])
    return FigureArtifact(
        "14", "Ecoregion fire potential and infrastructure",
        [(r.code, r.delta_2040_pct, r.transceivers) for r in rows], art)


def figure15(universe: SyntheticUS, width: int = 90) -> FigureArtifact:
    """WHP within the SLC-Denver ecoregion window."""
    whp = universe.whp
    art = class_map(whp.raster.data, whp.grid, WHP_SYMBOLS,
                    bbox=slc_denver_window(), width=width)
    rows = future_risk_analysis(universe)
    return FigureArtifact(
        "15", "WHP with ecoregions, SLC-Denver",
        [(r.code, r.at_risk_transceivers) for r in rows], art)
