"""The 2019 California case study: Figure 5 and the §3.2 findings.

Aggregates the DIRS simulation into the paper's daily stacked series
(sites out by cause) and checks the structural findings: power loss is
the dominant cause (>80% at the peak), outages peak on 28 October, and
damaged sites remain out at the end of the reporting window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.dirs import DirsSimulation
from ..data.universe import SyntheticUS
from ..session import artifact, register_stage, session_of

__all__ = ["CaseStudySummary", "case_study_analysis", "DOY_LABELS",
           "outage_by_county"]

#: Day-of-year -> human label for the 2019 reporting window.
DOY_LABELS = {
    298: "Oct 25", 299: "Oct 26", 300: "Oct 27", 301: "Oct 28",
    302: "Oct 29", 303: "Oct 30", 304: "Oct 31", 305: "Nov 1",
}


@dataclass
class CaseStudySummary:
    """Figure 5 series plus the §3.2 headline numbers (scaled)."""

    days: list[str]
    power: list[int]
    backhaul: list[int]
    damage: list[int]
    peak_total: int
    peak_day: str
    peak_power_share: float
    final_total: int
    final_damaged: int

    def totals(self) -> list[int]:
        return [p + b + d for p, b, d in
                zip(self.power, self.backhaul, self.damage)]


def case_study_analysis(universe: SyntheticUS,
                        sim: DirsSimulation | None = None) \
        -> CaseStudySummary:
    """Aggregate the DIRS simulation into the Figure 5 series."""
    if sim is None:
        return session_of(universe).artifact("case_study")
    return _compute_case_study(universe, sim)


def _compute_case_study(universe: SyntheticUS,
                        sim: DirsSimulation) -> CaseStudySummary:
    scale = universe.universe_scale
    scaled = sim.scaled_reports(scale)

    days = [DOY_LABELS[r["doy"]] for r in scaled]
    power = [r["power"] for r in scaled]
    backhaul = [r["backhaul"] for r in scaled]
    damage = [r["damage"] for r in scaled]
    totals = [p + b + d for p, b, d in zip(power, backhaul, damage)]

    peak_i = max(range(len(totals)), key=lambda i: totals[i])
    final_i = len(totals) - 1
    peak_total = totals[peak_i]
    peak_power_share = (power[peak_i] / peak_total) if peak_total else 0.0

    return CaseStudySummary(
        days=days,
        power=power,
        backhaul=backhaul,
        damage=damage,
        peak_total=peak_total,
        peak_day=days[peak_i],
        peak_power_share=peak_power_share,
        final_total=totals[final_i],
        final_damaged=damage[final_i],
    )


def outage_by_county(universe: SyntheticUS,
                     sim: DirsSimulation | None = None,
                     top_n: int = 10) -> list[tuple[str, int]]:
    """County breakdown of affected sites (the real DIRS reports were
    filed per county across the 37 activated counties).

    Returns (county name, scaled affected-site count) pairs, largest
    first.
    """
    if sim is None:
        sim = universe.dirs
    if sim.ever_out is None or not len(sim.ever_out):
        return []
    counties = universe.counties
    idx = counties.assign_many(sim.site_lons[sim.ever_out],
                               sim.site_lats[sim.ever_out])
    idx = idx[idx >= 0]
    out: dict[str, int] = {}
    for i in idx.tolist():
        name = counties.counties[i].name
        out[name] = out.get(name, 0) + 1
    ranked = sorted(out.items(), key=lambda kv: -kv[1])[:top_n]
    return [(name, universe.scaled(count)) for name, count in ranked]


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("case_study")
def _case_study_artifact(session) -> CaseStudySummary:
    """Figure 5 daily outage series from the DIRS simulation."""
    universe = session.universe
    return _compute_case_study(universe, universe.dirs)


def _export_figure5(session, ctx) -> dict:
    from ..data import paper_constants as paper
    case = session.artifact("case_study")
    return {"figure5": {
        "days": case.days,
        "power": case.power,
        "backhaul": case.backhaul,
        "damage": case.damage,
        "peak_total": case.peak_total,
        "peak_power_share": case.peak_power_share,
        "paper": paper.DIRS_CASE_STUDY,
    }}


register_stage("fig5", help="2019 case study (Figure 5)",
               paper="Figure 5", artifact="case_study",
               render="render_figure5", order=40, domain="figures",
               export=_export_figure5)
