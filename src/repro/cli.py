"""Command-line interface.

Reproduce any of the paper's tables and figures from a shell::

    python -m repro table1 -n 60000
    python -m repro fig7
    python -m repro map --figure 6
    python -m repro validate --oversample 16
    python -m repro list         # show the stage registry
    python -m repro all          # every table and figure

Every subcommand below is generated from the **stage registry**
(:mod:`repro.session`): each analysis module registers its stage
(name, CLI options, artifact, renderer), and this module only iterates
the registrations — ``repro all`` ordering, ``repro list``, and the
per-stage options all fall out of them.

Counts are printed both raw and rescaled to the paper's 5,364,949-
transceiver universe; every command prints the paper's number alongside.

Runtime knobs (see docs/runtime.md): ``--workers`` shards the spatial
joins across processes (or set ``REPRO_WORKERS``), ``--cache-dir``
keeps join results on disk across runs (``--no-cache`` turns that
cache off), and ``--stats`` prints per-stage wall times,
per-artifact session hit/miss counts, and index/cache counters after
the command.

Observability (see docs/observability.md): ``--trace FILE`` records a
hierarchical span tree — one span per stage, artifact build, join, and
worker chunk — as Chrome ``trace_event`` JSON for Perfetto;
``--log-json FILE`` streams the same spans as JSON lines;
``--metrics FILE`` writes a Prometheus text exposition of the perf
counters; ``--profile FILE`` runs every stage under cProfile.  Every
traced span carries its process's memory, so the trace names the
spans that raised the peak resident set.  ``repro trace [STAGE]``
runs a stage (default: everything) traced and prints the span tree.

Provenance (see docs/observability.md): with ``--ledger-dir DIR`` (or
``REPRO_LEDGER_DIR``) every run appends a manifest — git SHA, version,
config, per-stage timings/counters, per-artifact fingerprints, output
checksums — to an append-only run ledger.  ``repro history [STAGE]``
shows the trend across runs, ``repro compare RUN_A RUN_B`` diffs two
runs (perf deltas + output drift), and ``repro gate`` fails when the
latest run regressed past a threshold against the median of the last N
baseline runs.  ``repro --version`` prints the package version and git
SHA that every manifest embeds.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

from . import obs, runtime
from .core import report
from .data import SyntheticUS, UniverseConfig
from .data.universe import SCALE_PRESETS, scale_config
from .session import (
    AnalysisSession,
    StageOption,
    get_stage,
    iter_stages,
    number_above,
    positive_float,
    positive_int,
    register_stage,
    set_artifact_observer,
    stages_in_all,
)

__all__ = ["main", "build_parser"]

#: Parse-time defaults for the universe flags.  ``--scale`` presets
#: yield to any flag the user moved off its default, so
#: ``--scale paper -n 1000000`` is a million-point paper-raster run.
_DEFAULT_TRANSCEIVERS = 60_000
_DEFAULT_SEED = 20_190_722
_DEFAULT_WHP_RES = 0.1

#: ``gate --threshold``: a latest/baseline ratio at or below 1 would
#: flag speed-ups as regressions.
_regression_ratio = number_above(float, 1.0, "a ratio above 1")


class _VersionAction(argparse.Action):
    """``repro --version``: package version + git SHA, then exit.

    The SHA lookup shells out to git, so it runs only when the flag is
    actually used — never on the normal parse path.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show version and git SHA, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(obs.version_string() + "\n")
        parser.exit()


def _run_map(session: AnalysisSession, args: argparse.Namespace) -> str:
    """ASCII-map stage: full-control runner over :mod:`repro.viz`."""
    from .viz import figures
    figure = getattr(args, "figure", 6)
    width = getattr(args, "width", 100)
    fig_fn = {2: figures.figure2, 3: figures.figure3,
              4: figures.figure4, 6: figures.figure6}[figure]
    return fig_fn(session.universe, width=width).ascii_art


register_stage("map", help="ASCII map of a figure",
               paper="Figures 2-6", run=_run_map, domain="figures",
               options=(StageOption("--figure", type=int, default=6,
                                    choices=(2, 3, 4, 6),
                                    help="figure number"),
                        StageOption("--width", type=positive_int,
                                    default=100)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Five Alarms' (IMC 2020) tables/figures.")
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument("-n", "--transceivers", type=positive_int,
                        default=_DEFAULT_TRANSCEIVERS,
                        help="synthetic universe size (default 60000)")
    parser.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    parser.add_argument("--whp-res", type=positive_float,
                        default=_DEFAULT_WHP_RES,
                        help="WHP grid resolution in degrees")
    parser.add_argument("--scale", type=str, default=None,
                        choices=tuple(SCALE_PRESETS),
                        help="named universe scale (tiny/seed/paper); "
                             "explicit -n / --seed / --whp-res flags "
                             "override the preset's fields")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for spatial joins "
                             "(default: $REPRO_WORKERS or 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the --cache-dir "
                             "result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache "
                             "(default: $REPRO_CACHE_DIR, else no cache)")
    parser.add_argument("--stats", action="store_true",
                        help="print runtime perf counters after the run")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON span tree "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--log-json", metavar="FILE", default=None,
                        help="stream spans and events as JSON lines")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a Prometheus text exposition of the "
                             "perf counters after the run")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="profile every stage under cProfile; dump "
                             "aggregated pstats to FILE")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="append a run manifest (provenance, "
                             "timings, output checksums) to the ledger "
                             "in DIR ($REPRO_LEDGER_DIR; off by "
                             "default)")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in iter_stages():
        stage_parser = sub.add_parser(stage.name, help=stage.help)
        for opt in stage.options:
            kwargs: dict = {"type": opt.type, "default": opt.default}
            if opt.help:
                kwargs["help"] = opt.help
            if opt.choices is not None:
                kwargs["choices"] = opt.choices
            if opt.nargs is not None:
                kwargs["nargs"] = opt.nargs
            stage_parser.add_argument(opt.flag, **kwargs)

    sub.add_parser("list", help="show the stage registry")
    sub.add_parser("all", help="every table and figure")
    trace_parser = sub.add_parser(
        "trace", help="run a stage traced and print the span tree")
    trace_parser.add_argument(
        "stage", nargs="?", default="all",
        choices=tuple(s.name for s in iter_stages()) + ("all",),
        help="stage to trace (default: all)")
    trace_parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the Chrome trace_event JSON to FILE")
    trace_parser.add_argument(
        "--min-ms", type=float, default=0.1,
        help="fold spans shorter than this (default 0.1ms)")
    trace_parser.add_argument(
        "--events", action="store_true",
        help="show instant events (cache/pool) in the tree")

    history_parser = sub.add_parser(
        "history", help="show the run-ledger timing trend")
    history_parser.add_argument(
        "stage", nargs="?", default=None,
        help="track one stage's timer instead of the run total")
    history_parser.add_argument(
        "--limit", type=positive_int, default=20,
        help="show at most this many runs (default 20)")
    history_parser.add_argument(
        "--bench", metavar="FILE", action="append", default=[],
        help="also ingest a BENCH_runtime.json "
             "(schema bench-runtime/1 or /2; repeatable)")

    compare_parser = sub.add_parser(
        "compare", help="diff two ledger runs (perf + output drift)")
    compare_parser.add_argument(
        "run_a", help="run-id prefix or index (-2 = previous run)")
    compare_parser.add_argument(
        "run_b", nargs="?", default="-1",
        help="second run (default: -1, the latest)")
    compare_parser.add_argument(
        "--min-seconds", type=float, default=0.0,
        help="hide timers below this on both sides")

    gate_parser = sub.add_parser(
        "gate", help="fail when the latest run regressed vs the "
                     "baseline median")
    gate_parser.add_argument(
        "stage", nargs="?", default=None,
        help="gate only this stage's timers (default: all)")
    gate_parser.add_argument(
        "--baseline", type=positive_int, default=5,
        help="baseline size: median of the last N prior runs "
             "(default 5)")
    gate_parser.add_argument(
        "--threshold", type=_regression_ratio, default=1.3,
        help="regression ratio vs the baseline median (default 1.3)")
    gate_parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="noise floor: skip timers under this on both sides")
    gate_parser.add_argument(
        "--fail-on-drift", action="store_true",
        help="also exit nonzero when output checksums drifted")
    return parser


def _universe(args: argparse.Namespace) -> SyntheticUS:
    scale = getattr(args, "scale", None)
    if scale is not None:
        preset = scale_config(scale)
        if args.transceivers == _DEFAULT_TRANSCEIVERS:
            args.transceivers = preset.n_transceivers
        if args.seed == _DEFAULT_SEED:
            args.seed = preset.seed
        if args.whp_res == _DEFAULT_WHP_RES:
            args.whp_res = preset.whp_resolution_deg
        # args now carries the resolved values, so the ledger manifest
        # records the universe that actually ran.
    return SyntheticUS(UniverseConfig(
        n_transceivers=args.transceivers,
        seed=args.seed,
        whp_resolution_deg=args.whp_res,
    ))


def _configure_runtime(args: argparse.Namespace) -> None:
    """Apply CLI runtime flags to the global execution-layer config."""
    from pathlib import Path

    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.no_cache:
        overrides["cache_enabled"] = False
    if args.cache_dir is not None:
        overrides["cache_dir"] = Path(args.cache_dir)
    if overrides:
        runtime.configure(**overrides)
        runtime.set_cache(None)   # rebuild the cache from the new config


def _runtime_config_dict() -> dict:
    cfg = runtime.get_config()
    return {
        "workers": cfg.workers,
        "cache_enabled": cfg.cache_enabled,
        "cache_dir": str(cfg.cache_dir) if cfg.cache_dir else None,
    }


def _configure_ledger(args: argparse.Namespace) -> dict | None:
    """Arm run-manifest recording when a ledger directory is set.

    Returns ``None`` (and installs nothing — zero overhead) when the
    ledger is off.  When armed: snapshots the perf registry so the
    manifest records *this run's* delta, and installs the session
    artifact observer that fingerprints every built artifact.
    """
    ledger_dir = obs.resolve_ledger_dir(args.ledger_dir)
    if ledger_dir is None:
        return None
    state = {
        "dir": ledger_dir,
        "t0": time.perf_counter(),
        "started": obs.utc_now_iso(),
        "before": runtime.STATS.snapshot(),
        "artifacts": {},
        "outputs": {},
    }

    def observe(name: str, key: tuple, seconds: float, value) -> None:
        label = name if not key[1] else name + "(" + ", ".join(
            f"{k}={v!r}" for k, v in key[1]) + ")"
        state["artifacts"][label] = {
            "seconds": round(seconds, 6),
            "sha256": obs.fingerprint(value),
        }

    set_artifact_observer(observe)
    return state


def _finalize_ledger(args: argparse.Namespace, state: dict,
                     argv: list[str], out) -> None:
    """Append this run's manifest to the ledger (success path only)."""
    delta = runtime.STATS.delta_since(state["before"])
    delta.pop("spans", None)
    manifest = obs.RunManifest(
        run_id=obs.new_run_id(),
        kind="cli",
        command=args.command,
        started=state["started"],
        duration_s=round(time.perf_counter() - state["t0"], 6),
        argv=[str(a) for a in argv],
        config=_runtime_config_dict(),
        universe={"n_transceivers": args.transceivers,
                  "seed": args.seed,
                  "whp_resolution_deg": args.whp_res,
                  "scale": getattr(args, "scale", None),
                  "hazard": getattr(args, "hazard", None),
                  "scenario": getattr(args, "scenario", None)},
        timers=delta["timers"],
        timer_calls=delta["timer_calls"],
        counters=delta["counters"],
        artifacts=dict(sorted(state["artifacts"].items())),
        outputs=dict(sorted(state["outputs"].items())),
        **obs.environment(),
    )
    try:
        path = obs.Ledger(state["dir"]).append(manifest)
    except OSError as exc:
        # An unwritable ledger must never sink a finished analysis —
        # same contract as an unwritable cache dir.
        out(f"ledger: unwritable ({exc}); run not recorded")
        return
    out(f"ledger: run {manifest.run_id} -> {path}")


def _run_ledger_command(args: argparse.Namespace, out) -> int:
    """The read-only ledger surfaces: history, compare, gate."""
    ledger_dir = obs.resolve_ledger_dir(args.ledger_dir,
                                        for_reading=True)
    if ledger_dir is None:
        out("no ledger found: pass --ledger-dir DIR (before the "
            "subcommand) or set REPRO_LEDGER_DIR")
        return 2
    ledger = obs.Ledger(ledger_dir)
    runs = ledger.runs()
    if args.command == "history":
        for bench in args.bench:
            runs.append(obs.ingest_bench(bench))
        runs.sort(key=lambda r: r.started)
        out(report.render_history(runs, stage=args.stage,
                                  limit=args.limit))
        if ledger.skipped:
            out(f"({ledger.skipped} corrupt ledger lines skipped)")
        return 0
    if not runs:
        out(f"ledger {ledger.path} has no runs")
        return 2
    if args.command == "compare":
        try:
            run_a = ledger.resolve(args.run_a, runs)
            run_b = ledger.resolve(args.run_b, runs)
        except KeyError as exc:
            out(str(exc.args[0]))
            return 2
        diff = obs.compare_runs(run_a, run_b,
                                min_seconds=args.min_seconds)
        out(report.render_compare(diff))
        return 0
    gate = obs.gate_check(runs, baseline=args.baseline,
                          threshold=args.threshold, stage=args.stage,
                          min_seconds=args.min_seconds)
    out(report.render_gate(gate))
    if not gate.ok:
        return 1
    if args.fail_on_drift and gate.drift:
        return 1
    return 0


def _configure_obs(args: argparse.Namespace) -> dict:
    """Arm the observability layer from CLI flags.

    Returns the state :func:`_finalize_obs` needs: the tracer (when
    tracing), the JSONL sink, and the stage profiler.  Tracing turns
    on for ``--trace`` / ``--log-json`` and the ``trace`` subcommand;
    otherwise spans only feed their timers and nothing else is armed.
    """
    state: dict = {"tracer": None, "sink": None, "profiler": None}
    tracing = (args.trace is not None or args.log_json is not None
               or args.command == "trace")
    if tracing:
        state["tracer"] = obs.enable()
        state["tracer"].clear()     # spans from any earlier in-process run
    if args.log_json is not None:
        state["sink"] = obs.JsonlSink(args.log_json)
        state["tracer"].set_sink(state["sink"])
    if args.profile is not None:
        state["profiler"] = obs.StageProfiler()
    return state


def _finalize_obs(args: argparse.Namespace, state: dict, out) -> None:
    """Write the requested exports and disarm the probes."""
    tracer = state["tracer"]
    if args.trace is not None and tracer is not None:
        obs.write_chrome_trace(args.trace, tracer)
        out(f"trace: {len(tracer.finished)} spans -> {args.trace}")
    if state["sink"] is not None:
        state["sink"].close()
    if args.metrics is not None:
        from pathlib import Path
        Path(args.metrics).write_text(
            obs.prometheus_text(runtime.STATS.snapshot()),
            encoding="utf-8")
    if state["profiler"] is not None:
        state["profiler"].dump(args.profile)
        out(f"profile: {len(state['profiler'].stages)} stages -> "
            f"{args.profile}")
    if tracer is not None:
        obs.disable()


class Terminated(BaseException):
    """SIGTERM reached the main process.  Raised from the handler so
    every ``finally`` block on the way out runs (a cache entry's temp
    file is removed, the trace and metrics sinks close); not an
    ``Exception``, so no handler meant for errors swallows it."""


def _terminate(signum, frame):
    # A second SIGTERM while the first unwinds ends the process as the
    # default action would.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    raise Terminated


def _default_sigterm_in_child() -> None:
    """Forked pool workers keep SIGTERM's default action."""
    if signal.getsignal(signal.SIGTERM) is _terminate:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


os.register_at_fork(after_in_child=_default_sigterm_in_child)


def main(argv: list[str] | None = None, stream=None) -> int:
    """CLI entry point.  Returns a process exit code.

    In the main thread, SIGTERM becomes one ``repro: terminated`` line
    on stderr and exit status 143 (128 + SIGTERM), after the run's
    ``finally`` blocks have run.
    """
    if threading.current_thread() is not threading.main_thread():
        return _main(argv, stream)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv, stream)
    except Terminated:
        sys.stderr.write("repro: terminated\n")
        return 128 + signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM,
                      signal.SIG_DFL if previous is None else previous)


def _main(argv: list[str] | None, stream) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    def out(text: str) -> None:
        stream.write(text + "\n")

    _configure_runtime(args)
    if args.command == "list":
        out(report.render_stage_list(iter_stages()))
        return 0
    if args.command in ("history", "compare", "gate"):
        return _run_ledger_command(args, out)

    obs_state = _configure_obs(args)
    profiler = obs_state["profiler"]
    ledger_state = _configure_ledger(args)

    def run_stage(stage, session) -> str:
        with obs.span(f"stage.{stage.name}", timer=f"cli.{stage.name}",
                      paper=stage.paper):
            if profiler is not None:
                with profiler.stage(stage.name):
                    text = stage.run(session, args)
            else:
                text = stage.run(session, args)
        if ledger_state is not None:
            ledger_state["outputs"][stage.name] = \
                obs.checksum_text(text)
        return text

    try:
        session = AnalysisSession(_universe(args))
        if args.command == "trace":
            stages = stages_in_all() if args.stage == "all" \
                else (get_stage(args.stage),)
            for stage in stages:
                run_stage(stage, session)
            tracer = obs_state["tracer"]
            out(report.render_span_tree(tracer.finished,
                                        min_ms=args.min_ms,
                                        show_events=args.events))
            if args.out is not None:
                obs.write_chrome_trace(args.out, tracer)
                out(f"trace: {len(tracer.finished)} spans -> "
                    f"{args.out}")
        elif args.command == "all":
            for stage in stages_in_all():
                out(f"\n===== {stage.name} =====")
                out(run_stage(stage, session))
        else:
            out(run_stage(get_stage(args.command), session))
        if args.stats:
            out("")
            out(report.render_stats(runtime.STATS.snapshot()))
        if ledger_state is not None:
            _finalize_ledger(args, ledger_state,
                             argv if argv is not None else sys.argv[1:],
                             out)
    finally:
        if ledger_state is not None:
            set_artifact_observer(None)
        _finalize_obs(args, obs_state, out)
    return 0
