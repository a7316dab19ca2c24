"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

ARGS = ["-n", "20000", "--whp-res", "0.1"]


def _run(*argv: str) -> str:
    buffer = io.StringIO()
    code = main([*ARGS, *argv], stream=buffer)
    assert code == 0
    return buffer.getvalue()


def test_imports_without_networkx():
    """networkx is no dependency: the CLI imports with it blocked."""
    code = "import sys; sys.modules['networkx'] = None; import repro.cli"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


def test_imports_and_lists_without_scipy():
    """scipy loads only where a stage filters: the CLI imports and
    ``repro list`` runs with it blocked."""
    code = ("import sys; sys.modules['scipy'] = None; import repro.cli; "
            "sys.exit(repro.cli.main(['list']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert "table1" in proc.stdout


def test_warm_all_runs_without_scipy(tmp_path):
    """Only universe synthesis needs scipy: a warm ``all`` from a primed
    ``--cache-dir`` runs with it blocked and prints the cold bytes."""
    argv = ["--scale", "tiny", "--cache-dir", str(tmp_path), "all"]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    cold = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, timeout=300, env=env)
    assert cold.returncode == 0, cold.stderr.decode()[-2000:]
    code = ("import sys; sys.modules['scipy'] = None; import repro.cli; "
            "sys.exit(repro.cli.main(sys.argv[1:]))")
    warm = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, timeout=300, env=env)
    assert warm.returncode == 0, warm.stderr.decode()[-2000:]
    assert warm.stdout == cold.stdout


class _FakeClock:
    """A span clock that advances one millisecond per read, so a run's
    timers follow its span structure instead of the host's speed."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-3
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def fake_clock(monkeypatch) -> _FakeClock:
    from repro.obs import trace

    clock = _FakeClock()
    monkeypatch.setattr(trace, "clock", clock)
    return clock


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.transceivers == 60_000
        assert args.command == "fig7"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_is_a_root_option(self):
        parser = build_parser()
        assert parser.parse_args(["fig7"]).scale is None
        assert parser.parse_args(["--scale", "tiny", "fig7"]).scale \
            == "tiny"
        with pytest.raises(SystemExit):
            parser.parse_args(["--scale", "huge", "fig7"])


class TestNumericArguments:
    """Counts, sizes and ratios are range-checked at parse time: a bad
    value is a one-line usage error with exit 2, never a traceback or
    a run that quietly means something else."""

    @pytest.mark.parametrize("argv", [
        ["-n", "0", "table1"],
        ["-n", "ten", "table1"],
        ["--whp-res", "0", "table1"],
        ["--whp-res", "nan", "table1"],
        ["validate", "--oversample", "0"],
        ["scenario", "grid-ignition-season", "--members", "0"],
        ["map", "--width", "-5"],
        ["stream", "--ticks", "0"],
        ["stream", "--ticks", "1"],
        ["season_overlay", "--year", "0"],
        ["power", "--year", "0"],
        ["extend", "--radius-miles", "-1"],
        ["extend", "--radius-miles", "nan"],
        ["history", "--limit", "0"],
        ["history", "--limit", "-1"],
        ["gate", "--baseline", "0"],
        ["gate", "--threshold", "0.1"],
        ["gate", "--threshold", "1"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ": error: argument " in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["-n", "1", "--whp-res", "0.5", "table1"],
        ["validate", "--oversample", "1"],
        ["stream", "--ticks", "2"],
        ["history", "--limit", "1"],
        ["gate", "--baseline", "1", "--threshold", "1.01"],
    ])
    def test_smallest_good_value_parses(self, argv):
        build_parser().parse_args(argv)

    @pytest.mark.parametrize("stage", ["season_overlay", "power"])
    def test_wildfire_year_outside_the_record_is_a_clean_error(
            self, stage, capsys):
        """The wildfire record covers 2000-2019: another year is a
        one-line error naming the stage, never a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["-n", "2000", stage, "--year", "1999"])
        # A string exit code is printed to stderr with exit status 1.
        assert exc.value.code == \
            f"repro {stage}: no wildfire season for 1999 (the record " \
            f"covers 2000-2019)"
        assert "Traceback" not in capsys.readouterr().err

    def test_history_limit_keeps_the_latest_runs(self, tmp_path):
        from repro.obs import Ledger
        from tests.obs.test_ledger import _run as manifest

        ledger = Ledger(tmp_path)
        for day, run_id in enumerate(("aaaa0000", "bbbb0000",
                                      "cccc0000"), start=1):
            ledger.append(manifest(
                run_id, started=f"2026-08-0{day}T00:00:00+00:00"))
        buffer = io.StringIO()
        assert main(["--ledger-dir", str(tmp_path), "history",
                     "--limit", "2"], stream=buffer) == 0
        out = buffer.getvalue()
        assert "aaaa0000" not in out
        assert "bbbb0000" in out and "cccc0000" in out


class TestCommands:
    def test_table1(self):
        out = _run("table1")
        assert "2018" in out and "Paper" in out

    def test_table2(self):
        assert "AT&T" in _run("table2")

    def test_table3(self):
        assert "LTE" in _run("table3")

    def test_fig5(self):
        assert "Oct 28" in _run("fig5")

    def test_fig7(self):
        out = _run("fig7")
        assert "Very High" in out and "261,569" in out

    def test_fig8(self):
        assert "CA" in _run("fig8")

    def test_fig9(self):
        assert "per 1000" in _run("fig9")

    def test_fig10(self):
        assert "Very Dense" in _run("fig10")

    def test_fig12(self):
        assert "Los Angeles" in _run("fig12")

    def test_ecoregions(self):
        assert "+240%" in _run("ecoregions")

    def test_validate(self):
        assert "accuracy" in _run("validate", "--oversample", "2")

    def test_extend(self):
        assert "->" in _run("extend")

    def test_power(self):
        assert "substations" in _run("power", "--year", "2019")

    def test_coverage(self):
        assert "coverage" in _run("coverage")

    def test_map(self):
        out = _run("map", "--figure", "6", "--width", "60")
        assert len(out.splitlines()) > 5


class TestVersionFlag:
    def test_version_prints_version_and_sha(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"repro {__version__} (")


class TestLedgerCLI:
    """The run ledger: recording, history, compare, and the gate."""

    SMALL = ["-n", "2000", "--no-cache"]

    def _ledgered(self, ledger_dir, *argv):
        buffer = io.StringIO()
        code = main(["--ledger-dir", str(ledger_dir), *argv],
                    stream=buffer)
        return code, buffer.getvalue()

    def _record_run(self, ledger_dir, *extra):
        code, out = self._ledgered(ledger_dir, *self.SMALL, *extra,
                                   "fig7")
        assert code == 0
        assert "ledger: run " in out

    def test_disabled_by_default_writes_nothing(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        out = _run("fig7")
        assert "ledger:" not in out
        assert not (tmp_path / ".repro").exists()

    def test_run_appends_manifest_with_provenance(self, tmp_path):
        from repro import __version__
        from repro.obs import Ledger

        self._record_run(tmp_path / "led")
        (run,) = Ledger(tmp_path / "led").runs()
        assert run.kind == "cli" and run.command == "fig7"
        assert run.version == __version__
        assert run.universe["n_transceivers"] == 2000
        assert run.config["cache_enabled"] is False
        assert "cli.fig7" in run.timers
        assert run.outputs["fig7"]
        assert any(a.startswith("hazard") for a in run.artifacts)
        for rec in run.artifacts.values():
            assert len(rec["sha256"]) == 64 and rec["seconds"] >= 0

    def test_identical_runs_have_identical_checksums(self, tmp_path):
        from repro.obs import Ledger

        led = tmp_path / "led"
        self._record_run(led)
        self._record_run(led)
        a, b = Ledger(led).runs()
        assert a.outputs == b.outputs
        assert {k: v["sha256"] for k, v in a.artifacts.items()} == \
            {k: v["sha256"] for k, v in b.artifacts.items()}

    def test_history_and_compare_read_the_ledger_back(self, tmp_path):
        led = tmp_path / "led"
        self._record_run(led)
        self._record_run(led)
        code, out = self._ledgered(led, "history")
        assert code == 0
        assert "total s" in out and out.count("fig7") >= 2
        code, out = self._ledgered(led, "history", "fig7")
        assert code == 0 and "fig7 s" in out
        code, out = self._ledgered(led, "compare", "-2", "-1")
        assert code == 0
        assert "cli.fig7" in out
        assert "drift: none" in out

    def test_unwritable_ledger_dir_does_not_sink_the_run(self):
        code, out = self._ledgered("/proc/nope/led", *self.SMALL,
                                   "fig7")
        assert code == 0
        assert "Very High" in out
        assert "ledger: unwritable" in out
        assert "run not recorded" in out

    def test_warm_all_joins_nothing(self, tmp_path):
        """A second `repro all` on the first one's --cache-dir prints
        the same bytes and serves every join from disk: no cache miss,
        no index query and no index build."""
        from repro import runtime
        from repro.obs import Ledger

        argv = ["-n", "2000", "--cache-dir", str(tmp_path / "cache"),
                "--ledger-dir", str(tmp_path / "led"), "all"]
        outs = []
        saved = runtime.get_config()
        try:
            # Earlier --no-cache runs leave the cache switched off.
            runtime.configure(cache_enabled=True)
            for _ in range(2):
                buffer = io.StringIO()
                assert main(argv, stream=buffer) == 0
                # Drop the ledger line: it names the (random) run id.
                outs.append("".join(
                    line for line in
                    buffer.getvalue().splitlines(keepends=True)
                    if not line.startswith("ledger: run ")))
        finally:
            runtime.set_config(saved)
            runtime.set_cache(None)
        assert outs[0] == outs[1]
        cold, warm = Ledger(tmp_path / "led").runs()
        assert cold.counters["cache.misses"] > 0
        assert warm.counters.get("cache.misses", 0) == 0
        assert warm.counters["cache.hits"] == cold.counters["cache.misses"]
        assert [k for k in warm.counters if k.startswith("index.")] == []
        assert "geo.index" not in warm.timers

    def test_missing_ledger_is_a_clean_error(self, tmp_path,
                                             monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        buffer = io.StringIO()
        assert main(["history"], stream=buffer) == 2
        assert "no ledger found" in buffer.getvalue()

    def test_gate_flags_injected_slowdown_as_regression(
            self, tmp_path, monkeypatch, fake_clock):
        """The acceptance scenario: a 2x slowdown injected into an
        artifact build must trip the gate, while the healthy baseline
        passes it."""
        import dataclasses
        import statistics

        from repro import session as session_mod
        from repro.obs import Ledger

        led = tmp_path / "led"
        for _ in range(3):
            self._record_run(led)
        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 0 and "OK" in out

        median = statistics.median(
            r.timers["cli.fig7"] for r in Ledger(led).runs())
        spec = session_mod.get_artifact_spec("hazard")

        def slow_build(session, **params):
            fake_clock.advance(max(median, 0.1))
            return spec.build(session, **params)

        monkeypatch.setitem(
            session_mod._ARTIFACTS, "hazard",
            dataclasses.replace(spec, build=slow_build))
        self._record_run(led)
        monkeypatch.undo()

        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 1
        assert "REGRESSION" in out
        assert "cli.fig7" in out or "artifact.hazard" in out
        assert "drift" not in out.lower()

    @pytest.mark.usefixtures("fake_clock")
    def test_gate_flags_changed_seed_as_drift_not_regression(
            self, tmp_path):
        """The other acceptance half: different results at healthy
        speed are drift, and only --fail-on-drift makes that fatal."""
        led = tmp_path / "led"
        for _ in range(3):
            self._record_run(led)
        self._record_run(led, "--seed", "424242")

        code, out = self._ledgered(led, "gate", "--baseline", "5")
        assert code == 0
        assert "REGRESSION" not in out
        assert "drift: output fig7" in out

        code, _ = self._ledgered(led, "gate", "--baseline", "5",
                                 "--fail-on-drift")
        assert code == 1

        code, out = self._ledgered(led, "compare", "-2", "-1")
        assert code == 0
        assert "~ output fig7: content changed" in out
        assert ("~ artifact whp_classes(hazard='wildfire'): "
                "content changed") in out


class TestObservabilityFlags:
    """The --trace / --log-json / --metrics / --profile surfaces and
    the `repro trace` subcommand."""

    def test_trace_writes_chrome_trace(self, tmp_path):
        import json

        from repro import runtime

        path = tmp_path / "trace.json"
        saved = runtime.get_config()
        try:
            # --no-cache so the join bodies (and their spans) actually
            # run even under a warm $REPRO_CACHE_DIR
            out = _run("--no-cache", "--trace", str(path), "fig7")
        finally:
            runtime.set_config(saved)
            runtime.set_cache(None)
        assert "Very High" in out            # the stage still renders
        assert f"-> {path}" in out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "stage.fig7" in names
        # one span per artifact the stage built (memo hits emit events,
        # not spans, so these appear exactly once)
        assert "artifact.whp_classes" in names
        assert "classify_cells" in names
        spans = [e for e in events if e["ph"] == "X"]
        assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
                   for e in spans)
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)

    def test_trace_all_one_span_per_artifact_build(self, tmp_path):
        """`repro all --trace` ships a valid trace where each artifact
        build appears exactly once per parameterization (the session
        memo guarantees a second request is a hit, not a new span).
        Builds are keyed on their parameters alone: two duplicate
        builds differ in their memory readings."""
        import json
        from collections import Counter

        from repro.obs import Span

        not_params = {"span_id", "parent_id", *Span.MEMORY_FIELDS}
        path = tmp_path / "all.json"
        _run("--trace", str(path), "all")
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        builds = Counter()
        for e in spans:
            if e["name"].startswith("artifact."):
                args = e["args"]
                params = tuple(sorted((k, v) for k, v in args.items()
                                      if k not in not_params))
                builds[(e["name"], params)] += 1
        assert builds, "repro all must build artifacts"
        dupes = {k: n for k, n in builds.items() if n != 1}
        assert not dupes
        # every registered stage that ran got a stage span
        stage_names = {e["name"] for e in spans
                       if e["name"].startswith("stage.")}
        assert {"stage.table1", "stage.fig7", "stage.validate"} \
            <= stage_names

    def test_trace_subcommand_prints_tree(self):
        out = _run("trace", "fig7", "--min-ms", "0")
        assert "stage.fig7" in out
        assert "artifact." in out
        assert "%" in out                    # share-of-parent column

    def test_trace_subcommand_marks_peak_raising_spans(self):
        """A fresh process, so that building the universe raises its
        peak; the tree marks the spans that did."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-m", "repro", *ARGS, "trace", "fig7"],
            capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr[-2000:]
        marked = [line.split()[0] for line in done.stdout.splitlines()
                  if "[peak +" in line]
        assert "stage.fig7" in marked
        assert "data.population" in marked

    def test_trace_subcommand_writes_out_file(self, tmp_path):
        import json

        path = tmp_path / "t.json"
        out = _run("trace", "fig7", "--out", str(path))
        assert f"-> {path}" in out
        assert json.loads(path.read_text())["traceEvents"]

    def test_log_json_streams_spans(self, tmp_path):
        import json

        path = tmp_path / "spans.jsonl"
        _run("--log-json", str(path), "fig7")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert any(r["name"] == "stage.fig7" for r in records)
        assert all("type" in r for r in records)

    def test_metrics_exposition(self, tmp_path):
        path = tmp_path / "metrics.prom"
        _run("--metrics", str(path), "fig7")
        text = path.read_text()
        assert "# TYPE repro_stage_seconds_total counter" in text
        assert 'repro_stage_seconds_total{stage="cli.fig7"}' in text

    def test_profile_dumps_pstats(self, tmp_path):
        import pstats

        path = tmp_path / "prof.pstats"
        out = _run("--profile", str(path), "fig7")
        assert "profile: 1 stages" in out
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_trace_spans_carry_memory(self, tmp_path):
        """Memory needs no flag: every span of a trace carries its
        process's peak, its rise and its resident set."""
        import json

        from repro.obs import Span

        path = tmp_path / "trace.json"
        _run("--trace", str(path), "fig7")
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"].startswith("artifact.") for e in spans)
        for e in spans:
            hwm, rise, rss = (e["args"][k] for k in Span.MEMORY_FIELDS)
            assert hwm >= rss > 0 and rise >= 0, e["name"]

    @pytest.mark.parametrize("argv", [["--mem", "table2"],
                                      ["--mem", "--stats", "fig7"]])
    def test_mem_flag_is_unrecognized(self, argv, capsys):
        """Memory is a span measurement; no flag turns it on."""
        with pytest.raises(SystemExit) as exc:
            main([*ARGS, *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --mem")

    def test_tracing_off_leaves_no_spans(self):
        from repro import obs, runtime

        obs.get_tracer().clear()
        before = runtime.STATS.snapshot()
        _run("fig7")
        assert not obs.is_enabled()
        assert obs.get_tracer().finished == []
        # ... while every span still feeds its timer
        delta = runtime.STATS.delta_since(before)
        assert delta["timer_calls"]["cli.fig7"] == 1
        assert delta["timers"]["cli.fig7"] > 0.0

    def test_timers_are_span_totals(self, tmp_path):
        """In a traced, ledgered `repro all`, every manifest timer is
        the sum of its spans' durations with one call per span (the
        stage span `stage.X` fills the timer `cli.X`), and the data
        layer and index builds have rows."""
        from collections import defaultdict

        from repro import obs
        from repro.obs import Ledger

        code = main(["-n", "2000",
                     "--ledger-dir", str(tmp_path / "led"),
                     "--trace", str(tmp_path / "all.json"), "all"],
                    stream=io.StringIO())
        assert code == 0
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for sp in obs.get_tracer().finished:
            if sp.kind != "span":
                continue
            name = sp.name.replace("stage.", "cli.", 1) \
                if sp.name.startswith("stage.") else sp.name
            totals[name] += sp.duration
            calls[name] += 1
        (run,) = Ledger(tmp_path / "led").runs()
        assert set(run.timers) == set(totals)
        for name, seconds in totals.items():
            assert run.timers[name] == pytest.approx(seconds, abs=1e-6)
            assert run.timer_calls[name] == calls[name]
        assert {"data.population", "data.whp", "data.cells",
                "data.counties", "data.fire_seasons",
                "data.validation_cells", "data.dirs",
                "geo.index"} <= set(run.timers)
