"""Text renderers for the paper's tables and figure series.

Every benchmark prints through these, so EXPERIMENTS.md rows and the
console output stay consistent.  Renderers take the analysis dataclasses
and return plain strings (monospace tables).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..data import paper_constants as paper
from ..data.whp import WHPClass
from .case_study import CaseStudySummary
from .extension import ExtensionResult
from .future import EcoregionExposure
from .hazard import HazardSummary
from .historical import Table1Row
from .metro import MetroRisk
from .population_impact import PopulationImpact
from .provider_risk import ProviderRisk
from .technology import TechnologyRisk
from .validation import ValidationResult

__all__ = [
    "format_table",
    "render_stats",
    "render_span_tree",
    "render_stage_list",
    "render_history",
    "render_compare",
    "render_gate",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_figure5",
    "render_figure7",
    "render_figure8",
    "render_figure9",
    "render_figure10",
    "render_figure12",
    "render_validation",
    "render_extension",
    "render_ecoregions",
    "render_power",
    "render_coverage",
    "render_psps",
    "render_escape",
    "render_mitigation",
    "render_counties",
    "render_scenario",
    "render_stream",
]


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a right-aligned monospace table."""
    rows = [[str(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_stats(snapshot: dict) -> str:
    """Render a runtime perf snapshot (``--stats``) as monospace tables.

    ``snapshot`` is :meth:`repro.runtime.PerfRegistry.snapshot` output:
    per-stage wall times plus index/cache/parallel counters.
    """
    timers = snapshot.get("timers", {})
    calls = snapshot.get("timer_calls", {})
    counters = snapshot.get("counters", {})

    stage_rows = [[stage, f"{timers[stage]:.3f}", calls.get(stage, 1)]
                  for stage in sorted(timers, key=timers.get,
                                      reverse=True)]
    if not stage_rows:
        stage_rows = [["(none timed)", "-", "-"]]
    out = ["-- runtime stats --",
           format_table(["Stage", "Seconds", "Calls"], stage_rows)]

    counter_rows = [[name, f"{counters[name]:,}"]
                    for name in sorted(counters)]
    hits, misses = counters.get("cache.hits", 0), \
        counters.get("cache.misses", 0)
    if hits + misses:
        counter_rows.append(["cache hit rate",
                             f"{hits / (hits + misses):.1%}"])
    cand = counters.get("index.candidates", 0)
    if cand:
        counter_rows.append(["index selectivity",
                             f"{counters.get('index.hits', 0) / cand:.1%}"])
    if counter_rows:
        out.append(format_table(["Counter", "Value"], counter_rows))

    art_names = sorted({name.split(".", 2)[2] for name in counters
                        if name.startswith(("session.hit.",
                                            "session.miss."))})
    if art_names:
        art_rows = [[name,
                     f"{counters.get(f'session.hit.{name}', 0):,}",
                     f"{counters.get(f'session.miss.{name}', 0):,}",
                     f"{timers.get(f'artifact.{name}', 0.0):.3f}"]
                    for name in art_names]
        out.append(format_table(
            ["Artifact", "Hits", "Builds", "Seconds"], art_rows))
    return "\n".join(out)


def render_span_tree(spans, *, min_ms: float = 0.0,
                     show_events: bool = False) -> str:
    """Render a span list (``repro trace``) as an indented tree.

    ``spans`` is a sequence of :class:`repro.obs.Span`.  Children sort
    by start time under their parent; durations print in milliseconds
    with each span's share of its root.  A span that raised its
    process's peak resident set is marked with the rise and the peak
    after it, ``[peak +72.3 -> 139.1 MB]`` (rises that round to 0.0 MB
    are not marked).  Spans shorter than ``min_ms`` are folded
    (summarized per parent as ``… n spans below min``); instant events
    are hidden unless ``show_events``.
    """
    spans = list(spans)
    if not spans:
        return "(no spans recorded)"
    by_parent: dict = {}
    known = {sp.span_id for sp in spans}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in known else None
        by_parent.setdefault(parent, []).append(sp)
    for children in by_parent.values():
        children.sort(key=lambda sp: sp.start)

    lines = []

    def walk(sp, depth, root_total):
        if sp.kind == "instant" and not show_events:
            return
        label = "* " if sp.kind == "instant" else ""
        ms = sp.duration * 1e3
        share = f" ({sp.duration / root_total:5.1%})" \
            if root_total > 0 and sp.kind != "instant" else ""
        pid_tag = f" [pid {sp.pid}]" if sp.pid != spans[0].pid else ""
        rise_mb = (sp.hwm_rise_kb or 0) / 1024
        peak = f" [peak +{rise_mb:,.1f} -> {sp.hwm_kb / 1024:,.1f} MB]" \
            if rise_mb >= 0.05 else ""
        attrs = ", ".join(f"{k}={v}" for k, v in sp.attrs.items())
        attrs = f"  {{{attrs}}}" if attrs else ""
        lines.append(f"{'  ' * depth}{label}{sp.name}  "
                     f"{ms:,.1f}ms{share}{pid_tag}{peak}{attrs}")
        folded = 0
        for child in by_parent.get(sp.span_id, ()):
            if child.kind != "instant" and child.duration * 1e3 < min_ms:
                folded += 1
                continue
            walk(child, depth + 1, root_total)
        if folded:
            lines.append(f"{'  ' * (depth + 1)}"
                         f"... {folded} spans under {min_ms:g}ms")

    for root in by_parent.get(None, ()):
        walk(root, 0, root.duration)
    return "\n".join(lines)


#: Display order for stage domains in ``repro list``; unknown domains
#: sort after these, alphabetically.
_DOMAIN_ORDER = ("tables", "figures", "validation", "infrastructure",
                 "engine", "hazards", "analysis")


def render_stage_list(stages) -> str:
    """``repro list``: the stage registry grouped by domain.

    One monospace table per domain (paper tables first, then figures,
    validation, infrastructure, the engine stages, and hazards); the
    ``In 'all'`` column marks stages ``repro all`` skips with ``-``
    and a trailing footnote spells the convention out.
    """
    by_domain: dict = {}
    for stage in stages:
        by_domain.setdefault(stage.domain, []).append(stage)
    ordered = [d for d in _DOMAIN_ORDER if d in by_domain]
    ordered += sorted(set(by_domain) - set(_DOMAIN_ORDER))

    out = []
    any_excluded = False
    for domain in ordered:
        body = []
        for stage in by_domain[domain]:
            deps = ", ".join(stage.deps) if stage.artifact else "-"
            in_all = "yes" if stage.order is not None else "-"
            any_excluded = any_excluded or stage.order is None
            body.append([stage.name, stage.paper, in_all, deps])
        out.append(f"[{domain}]")
        out.append(format_table(["Stage", "Paper", "In 'all'",
                                 "Artifacts"], body))
        out.append("")
    if any_excluded:
        out.append("stages marked '-' run only on demand "
                   "(excluded from 'repro all')")
    return "\n".join(out).rstrip()


def _when(iso: str) -> str:
    """Compact ledger timestamp: drop seconds and the UTC offset."""
    return iso[:16].replace("T", " ")


def _sha7(sha: str | None) -> str:
    return sha[:7] if sha else "-"


def _pct_delta(a: float, b: float) -> str:
    if a <= 0:
        return "-" if b <= 0 else "new"
    return f"{(b - a) / a:+.1%}"


def render_history(runs, *, stage: str | None = None,
                   limit: int = 20) -> str:
    """``repro history``: the ledger's run trend as a table.

    One row per run (oldest first, last ``limit``): id, start time,
    git SHA, kind/command, the tracked wall time — a named stage's
    timer when ``stage`` is given, the run's headline total otherwise
    — and the delta against the previous displayed run.
    """
    runs = list(runs)[-limit:]
    if not runs:
        return "(ledger is empty)"
    col = f"{stage} s" if stage else "total s"
    body, prev = [], None
    for run in runs:
        if stage:
            seconds = run.timer_for(stage)
        else:
            seconds = run.total_seconds()
        cell = f"{seconds:.3f}" if seconds is not None else "-"
        delta = _pct_delta(prev, seconds) \
            if prev is not None and seconds is not None else "-"
        body.append([run.run_id[:8], _when(run.started),
                     _sha7(run.git_sha), run.kind, run.command,
                     cell, delta])
        if seconds is not None:
            prev = seconds
    return format_table(
        ["Run", "When", "SHA", "Kind", "Cmd", col, "Δ%"], body)


def render_compare(diff: dict, *, min_seconds: float = 0.0) -> str:
    """``repro compare``: perf deltas and output drift between runs.

    ``diff`` is :func:`repro.obs.ledger.compare_runs` output.  Four
    sections: a header naming both runs, the timer deltas (rows under
    ``min_seconds`` on both sides are already dropped upstream), the
    counter deltas (only counters that moved), and the drift report —
    stages/artifacts whose content checksum changed, appeared, or
    disappeared between the two runs.
    """
    a, b = diff["a"], diff["b"]
    out = ["-- run comparison --",
           f"A: {a.run_id[:8]}  {_when(a.started)}  "
           f"{_sha7(a.git_sha)}  {a.kind}:{a.command}",
           f"B: {b.run_id[:8]}  {_when(b.started)}  "
           f"{_sha7(b.git_sha)}  {b.kind}:{b.command}"]

    timer_rows = [[name, f"{av:.3f}", f"{bv:.3f}", _pct_delta(av, bv)]
                  for name, av, bv in diff["timers"]]
    if timer_rows:
        out.append(format_table(["Stage", "A s", "B s", "Δ%"],
                                timer_rows))
    counter_rows = [[name, f"{av:,}", f"{bv:,}", f"{bv - av:+,}"]
                    for name, av, bv in diff["counters"] if av != bv]
    if counter_rows:
        out.append(format_table(["Counter", "A", "B", "Δ"],
                                counter_rows))

    context = diff.get("context") or []
    if context:
        out.append("config changes:")
        for key, av, bv in context:
            out.append(f"  {key}: {av!r} -> {bv!r}")

    drift_lines = []
    for kind in ("outputs", "artifacts"):
        buckets = diff[kind]
        for name in buckets["changed"]:
            drift_lines.append(f"  ~ {kind[:-1]} {name}: content changed")
        for name in buckets["added"]:
            drift_lines.append(f"  + {kind[:-1]} {name}: only in B")
        for name in buckets["removed"]:
            drift_lines.append(f"  - {kind[:-1]} {name}: only in A")
    if drift_lines:
        if context:
            out.append("drift (expected: runs joined different "
                       "hazards/scenarios, see config changes):")
        else:
            out.append("drift:")
        out.extend(drift_lines)
    else:
        out.append("drift: none (all shared checksums identical)")
    return "\n".join(out)


def render_gate(report) -> str:
    """``repro gate``: the regression-gate verdict.

    ``report`` is a :class:`repro.obs.ledger.GateReport`.  Regressions
    (timer/counter past threshold x baseline median) and drift
    (checksums changed) are listed separately — drift alone does not
    fail the gate.
    """
    latest = report.latest
    head = (f"gate: run {latest.run_id[:8]} vs median of "
            f"{len(report.baseline_ids)} baseline run"
            f"{'s' if len(report.baseline_ids) != 1 else ''} "
            f"(threshold {report.threshold:g}x)")
    out = [head]
    if not report.has_baseline:
        out.append("  no baseline yet - gate passes vacuously")
        return "\n".join(out)
    for r in report.regressions:
        if r["kind"] == "timer":
            out.append(f"  REGRESSION {r['name']}: {r['latest']:.3f}s "
                       f"vs median {r['median']:.3f}s "
                       f"({r['ratio']:.2f}x)")
        else:
            out.append(f"  REGRESSION {r['name']}: {r['latest']:,} "
                       f"vs median {r['median']:,.0f} "
                       f"({r['ratio']:.2f}x)")
    for d in report.drift:
        out.append(f"  drift: {d['kind']} {d['name']} changed content")
    if report.ok:
        verdict = "OK" if not report.drift else \
            "OK (drift detected, no perf regression)"
        out.append(f"  {verdict}")
    if report.skipped_small:
        out.append(f"  ({report.skipped_small} timers under the "
                   f"noise floor skipped)")
    return "\n".join(out)


def render_table1(rows: list[Table1Row]) -> str:
    """Paper Table 1: historical wildfire statistics."""
    body = []
    for r in rows:
        expected = paper.TABLE1_TRANSCEIVERS_IN_PERIMETERS.get(r.year, "-")
        body.append([r.year, f"{r.n_fires:,}",
                     f"{r.acres_burned_millions:.3f}",
                     f"{r.transceivers_in_perimeters_scaled:,}",
                     f"{r.transceivers_per_m_acres:,.0f}",
                     f"{expected:,}" if expected != "-" else "-"])
    return format_table(
        ["Year", "Fires", "MAcres", "Tx-in-perim (scaled)",
         "Tx/MAcre", "Paper"], body)


def render_table2(rows: list[ProviderRisk]) -> str:
    """Paper Table 2: provider risk."""
    body = []
    for r in rows:
        p = paper.TABLE2_PROVIDER_RISK.get(r.provider)
        body.append([
            r.provider,
            f"{r.moderate:,} ({r.pct(WHPClass.MODERATE):.2f}%)",
            f"{r.high:,} ({r.pct(WHPClass.HIGH):.2f}%)",
            f"{r.very_high:,} ({r.pct(WHPClass.VERY_HIGH):.2f}%)",
            (f"{p['Moderate'][0]:,} ({p['Moderate'][1]:.2f}%)"
             if p else "-"),
        ])
    return format_table(
        ["Provider", "WHP M", "WHP H", "WHP VH", "Paper (M)"], body)


def render_table3(rows: list[TechnologyRisk]) -> str:
    """Paper Table 3: transceiver types at risk."""
    body = []
    for r in rows:
        p = paper.TABLE3_TECHNOLOGY_RISK.get(r.technology)
        body.append([r.technology, f"{r.very_high:,}", f"{r.high:,}",
                     f"{r.moderate:,}", f"{r.total:,}",
                     f"{p[3]:,}" if p else "-"])
    return format_table(
        ["Type", "WHP VH", "WHP H", "WHP M", "Total", "Paper total"],
        body)


def render_season_overlay(result) -> str:
    """One season's raw transceiver × perimeter join (§2.3)."""
    total = len(result.in_perimeter_mask)
    n = result.n_in_perimeter
    pct = 100.0 * n / max(total, 1)
    top = sorted(result.per_fire_counts.items(),
                 key=lambda kv: (-kv[1], kv[0]))[:5]
    table = format_table(["Fire", "Tx inside"],
                         [[name, f"{count:,}"] for name, count in top])
    return (f"{result.year}: {result.n_fires:,} fires, {n:,} of "
            f"{total:,} transceivers in perimeters ({pct:.4f}%)\n"
            + table)


def render_stream(result) -> str:
    """Per-tick incident diff table (delta overlay stream)."""
    rows = []
    for e in result.events:
        labels = [*e.ignited, *(f"{n}+" for n in e.changed)]
        if len(labels) > 4:
            labels = labels[:4] + [f"(+{len(labels) - 4} more)"]
        fires = ", ".join(labels)
        rows.append([
            e.tick,
            fires or "-",
            f"{e.new_impacted:+,}",
            f"{e.cum_impacted:,}",
            f"{e.new_population:+,.0f}",
            f"{e.cum_population:,.0f}",
            f"{e.dirty_buckets:,}",
            f"{e.skipped_buckets:,}",
        ])
    table = format_table(
        ["Tick", "Fires (new, grown+)", "New tx", "Cum tx",
         "New pop", "Cum pop", "Dirty", "Skipped"], rows)
    final = result.final
    return (f"{result.year} incident stream: {result.n_ticks} ticks, "
            f"{final.n_fires:,} fires, "
            f"{final.n_in_perimeter:,} transceivers in perimeters\n"
            + table)


def render_scenario(result) -> str:
    """Scenario ensemble summary: per-member impacts + distribution."""
    rows = [[m.member, f"{m.n_events:,}", f"{m.total_acres:,.0f}",
             f"{m.impacted:,}"] for m in result.members]
    table = format_table(["Member", "Events", "Acres", "Tx impacted"],
                         rows)
    return (f"scenario {result.name!r} ({result.hazard}, "
            f"{result.year}): {result.n_members} members\n"
            + table
            + f"\nimpacted tx: mean {result.mean_impacted:,.1f}, "
              f"min {result.min_impacted:,}, "
              f"max {result.max_impacted:,}")


def render_figure5(summary: CaseStudySummary) -> str:
    """Figure 5 series: daily outages by cause."""
    body = []
    for i, day in enumerate(summary.days):
        total = summary.power[i] + summary.backhaul[i] + summary.damage[i]
        body.append([day, summary.power[i], summary.backhaul[i],
                     summary.damage[i], total])
    table = format_table(["Day", "Power", "Backhaul", "Damage", "Total"],
                         body)
    notes = (f"\npeak {summary.peak_total} on {summary.peak_day} "
             f"({summary.peak_power_share:.0%} power)"
             f" | paper: {paper.DIRS_CASE_STUDY['peak_sites_out']} "
             f"(>{paper.DIRS_CASE_STUDY['power_share_at_peak']:.0%} power)"
             f"\nfinal {summary.final_total} out, "
             f"{summary.final_damaged} damaged | paper: "
             f"{paper.DIRS_CASE_STUDY['final_sites_out']} out, "
             f"{paper.DIRS_CASE_STUDY['final_damaged']} damaged")
    return table + notes


def render_figure7(summary: HazardSummary) -> str:
    """Figure 7 headline counts."""
    body = []
    for name in ("Moderate", "High", "Very High"):
        body.append([name, f"{summary.class_counts[name]:,}",
                     f"{paper.WHP_AT_RISK_COUNTS[name]:,}"])
    body.append(["Total at-risk", f"{summary.at_risk_total:,}",
                 f"{paper.WHP_AT_RISK_TOTAL:,}"])
    return format_table(["WHP class", "Measured (scaled)", "Paper"], body)


def render_figure8(summary: HazardSummary, n: int = 10) -> str:
    """Figure 8: top states by at-risk transceivers."""
    body = []
    for s in summary.states[:n]:
        body.append([s.state, f"{s.moderate:,}", f"{s.high:,}",
                     f"{s.very_high:,}", f"{s.total:,}"])
    table = format_table(["State", "Moderate", "High", "Very High",
                          "Total"], body)
    return (table + "\npaper top moderate states: "
            + ", ".join(paper.TOP_MODERATE_STATES))


def render_figure9(summary: HazardSummary, n: int = 10) -> str:
    """Figure 9: per-capita at-risk by state."""
    ranked = sorted(summary.states,
                    key=lambda s: s.per_thousand(), reverse=True)[:n]
    body = [[s.state, f"{s.per_thousand():.2f}",
             f"{s.per_thousand(WHPClass.VERY_HIGH):.3f}"]
            for s in ranked]
    table = format_table(
        ["State", "At-risk per 1000", "VH per 1000"], body)
    return (table + "\npaper top VH per-capita states: "
            + ", ".join(paper.TOP_VH_PER_CAPITA_STATES))


def render_figure10(impact: PopulationImpact) -> str:
    """Figure 10: WHP × population density matrix."""
    cats = list(next(iter(impact.matrix.values())).keys())
    body = []
    for whp_name, row in impact.matrix.items():
        body.append([whp_name] + [f"{row[c]:,}" for c in cats])
    table = format_table(["WHP class"] + cats, body)
    return (table
            + f"\nat-risk in >1.5M counties: "
              f"{impact.at_risk_in_vh_pop_counties:,} "
              f"(paper {paper.POP_IMPACT['at_risk_in_vh_pop_counties']:,})"
            + f"\nvery-dense counties: {impact.n_vh_pop_counties} "
              f"(paper {paper.POP_IMPACT['n_vh_pop_counties']})")


def render_figure12(rows: list[MetroRisk]) -> str:
    """Figure 12: metro ranking."""
    body = [[r.metro, f"{r.moderate:,}", f"{r.high:,}",
             f"{r.very_high:,}", f"{r.total:,}"] for r in rows]
    return format_table(["Metro", "Moderate", "High", "Very High",
                         "Total"], body)


def render_validation(result: ValidationResult) -> str:
    """§3.4 validation summary."""
    p = paper.VALIDATION_2019
    lines = [
        f"2019 in-perimeter transceivers: {result.in_perimeter_total} "
        f"(scaled {result.scaled(result.in_perimeter_total):,}; "
        f"paper {p['in_perimeter_total']})",
        f"predicted at-risk: {result.predicted_at_risk} "
        f"-> accuracy {result.accuracy:.0%} (paper {p['accuracy_pct']:.0f}%)",
        f"misses inside LA fires: {result.missed_in_la_fires}/"
        f"{result.missed} (paper {p['missed_in_la_fires']}/{p['missed']})",
        f"accuracy excluding LA fires: "
        f"{result.accuracy_excluding_la:.0%} "
        f"(paper {p['accuracy_excluding_la_pct']:.0f}%)",
    ]
    return "\n".join(lines)


def render_extension(result: ExtensionResult) -> str:
    """§3.8 extension summary."""
    p = paper.EXTENSION_HALF_MILE
    lines = [
        f"VH transceivers: {result.vh_before:,} -> {result.vh_after:,} "
        f"(paper {p['vh_before']:,} -> {p['vh_after']:,})",
        f"total at-risk: {result.total_before:,} -> "
        f"{result.total_after:,} "
        f"(paper {p['total_before']:,} -> {p['total_after']:,})",
        f"validation accuracy: "
        f"{result.validation_before.accuracy:.0%} -> "
        f"{result.validation_after.accuracy:.0%} "
        f"(paper 46% -> {p['accuracy_after_pct']:.0f}%)",
    ]
    return "\n".join(lines)


def render_ecoregions(rows: list[EcoregionExposure]) -> str:
    """§3.9 / Figures 14-15 table."""
    body = [[r.code, r.name[:34], f"{r.delta_2040_pct:+.0f}%",
             f"{r.transceivers:,}", f"{r.at_risk_transceivers:,}",
             f"{r.projected_at_risk_2040:,}"] for r in rows]
    return format_table(
        ["Code", "Ecoregion", "Δ2040", "Transceivers", "At-risk",
         "Projected"], body)


def render_power(impact) -> str:
    """§3.11 power-dependency one-liner."""
    return (f"{impact.year}: {impact.sites_direct} sites inside "
            f"perimeters, {impact.sites_indirect} more lose power "
            f"({impact.substations_hit} substations hit, "
            f"{impact.lines_cut} lines cut)")


def render_coverage(r) -> str:
    """§3.11 coverage-loss one-liner."""
    return (f"baseline coverage {r.covered_share_before:.0%}; losing "
            f"{r.sites_lost:,} at-risk sites strands "
            f"{r.population_lost / 1e6:.1f}M people "
            f"({r.lost_share:.2%} of US)")


def render_psps(exposure) -> str:
    """§3.10 PSPS shutoff-exposure one-liner."""
    return (f"{exposure.n_lines_at_risk}/{exposure.n_lines_total} lines "
            f"cross high-WHP terrain; de-energizing them darkens "
            f"{exposure.sites_exposed:,}/{exposure.sites_total:,} sites "
            f"({exposure.exposed_share:.1%})")


def render_escape(result) -> str:
    """HOT escape-model summary."""
    return (f"static at-risk {result.static_at_risk:,} -> "
            f"escape-adjusted {result.escape_adjusted_at_risk:,} "
            f"(+{result.added_transceivers:,} at reach "
            f"p>{result.reach_probability_threshold:g})")


def render_mitigation(sites, n: int = 15) -> str:
    """§3.10 site-hardening ranking (top sites by composite score)."""
    body = [[i + 1, s.site_id, f"{s.score:.2f}", s.whp_class,
             s.n_transceivers, s.n_providers,
             f"{s.county_population:,}"]
            for i, s in enumerate(sites[:n])]
    return format_table(
        ["#", "Site", "Score", "WHP", "Tx", "Providers", "County pop"],
        body)


def render_counties(rows, n: int = 15) -> str:
    """Chronically-exposed counties ranking."""
    body = [[r.county, r.state, f"{r.population:,}",
             f"{r.transceiver_exposures:,}", r.years_touched,
             "chronic" if r.chronic else ""]
            for r in rows[:n]]
    return format_table(
        ["County", "State", "Population", "Exposures", "Years", ""],
        body)
