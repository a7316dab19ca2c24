"""Tests for the run ledger: round trips, compare, the gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.ledger import (
    Ledger,
    compare_runs,
    gate_check,
    ingest_bench,
    resolve_ledger_dir,
)
from repro.obs.manifest import RunManifest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(run_id="r1", *, started="2026-08-06T00:00:00+00:00",
         timers=None, counters=None, outputs=None,
         artifacts=None, **overrides) -> RunManifest:
    base = dict(
        run_id=run_id, kind="cli", command="fig7", started=started,
        duration_s=1.0, version="1.0.0", git_sha="e" * 40,
        python="3.11.0", machine="x86_64", cpu_count=4,
        timers=timers or {"cli.fig7": 1.0},
        counters=counters or {"index.candidates": 10_000},
        outputs=outputs or {"fig7": "aa" * 32},
        artifacts=artifacts or {"hazard": {"seconds": 0.9,
                                           "sha256": "bb" * 32}},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestLedgerIO:
    def test_append_and_read_back(self, tmp_path):
        ledger = Ledger(tmp_path / "led")
        m = _run()
        ledger.append(m)
        assert ledger.runs() == [m]
        assert ledger.skipped == 0

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(_run("r1"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write("{torn write\n\n")
        ledger.append(_run("r2"))
        runs = ledger.runs()
        assert [r.run_id for r in runs] == ["r1", "r2"]
        assert ledger.skipped == 1

    def test_append_after_a_torn_line_keeps_the_new_run(self, tmp_path):
        """A run appended after a torn last line (cut mid-line, no
        newline) reads back whole: only the torn run is lost."""
        ledger = Ledger(tmp_path)
        ledger.append(_run("r1"))
        ledger.append(_run("r2"))
        data = ledger.path.read_bytes()
        second = data.index(b"\n") + 1
        ledger.path.write_bytes(data[:second + (len(data) - second) // 2])
        ledger.append(_run("r3"))
        assert [r.run_id for r in ledger.runs()] == ["r1", "r3"]
        assert ledger.skipped == 1

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert Ledger(tmp_path / "nope").runs() == []

    def test_resolve_by_index_and_prefix(self, tmp_path):
        ledger = Ledger(tmp_path)
        for rid in ("aaa111", "bbb222", "bbb333"):
            ledger.append(_run(rid))
        runs = ledger.runs()
        assert ledger.resolve("-1", runs).run_id == "bbb333"
        assert ledger.resolve("0", runs).run_id == "aaa111"
        assert ledger.resolve("aaa", runs).run_id == "aaa111"
        with pytest.raises(KeyError):        # ambiguous prefix
            ledger.resolve("bbb", runs)
        with pytest.raises(KeyError):        # no match
            ledger.resolve("zzz", runs)
        with pytest.raises(KeyError):        # out of range
            ledger.resolve("-9", runs)

    def test_resolve_empty_ledger(self, tmp_path):
        with pytest.raises(KeyError):
            Ledger(tmp_path).resolve("-1")


class TestResolveLedgerDir:
    def test_off_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert resolve_ledger_dir() is None
        assert resolve_ledger_dir(for_reading=True) is None

    def test_cli_flag_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        assert resolve_ledger_dir(tmp_path / "flag") == \
            tmp_path / "flag"
        assert resolve_ledger_dir() == tmp_path / "env"

    def test_reading_falls_back_to_conventional_dir(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".repro" / "ledger").mkdir(parents=True)
        assert resolve_ledger_dir(for_reading=True) == \
            Path(".repro/ledger")
        # writes still require explicit opt-in
        assert resolve_ledger_dir() is None


_name = st.text(
    st.characters(codec="utf-8",
                  exclude_categories=("Cs", "Cc")),
    min_size=1, max_size=24)
_sha = st.text("0123456789abcdef", min_size=64, max_size=64)
_timers = st.dictionaries(
    _name,
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    max_size=6)
_counters = st.dictionaries(
    _name, st.integers(min_value=0, max_value=2**53), max_size=6)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(timers=_timers, counters=_counters,
           outputs=st.dictionaries(_name, _sha, max_size=4),
           duration=st.floats(min_value=0.0, max_value=1e5,
                              allow_nan=False, allow_infinity=False))
    def test_manifest_survives_the_ledger_bit_identically(
            self, tmp_path_factory, timers, counters, outputs,
            duration):
        """Checksums, counters, and float timings written by one
        registry must read back exactly — the ledger is the record of
        truth that ``repro compare`` diffs, so lossy round trips would
        fabricate drift."""
        tmp = tmp_path_factory.mktemp("ledger")
        m = _run(timers=timers, counters=counters, outputs=outputs,
                 duration_s=duration,
                 timer_calls={k: 1 for k in timers})
        ledger = Ledger(tmp)
        ledger.append(m)
        (got,) = ledger.runs()
        assert got == m
        assert got.to_json() == m.to_json()

    def test_written_by_another_process_reads_back_identically(
            self, tmp_path):
        """A manifest appended by a *different* interpreter process is
        read back bit-identically here (the cross-process half of the
        round-trip contract)."""
        script = f"""
import sys
sys.path.insert(0, {SRC!r})
from repro.obs.ledger import Ledger
from repro.obs.manifest import RunManifest
m = RunManifest(run_id="child000run0", kind="cli", command="fig7",
                started="2026-08-06T00:00:00+00:00",
                duration_s=0.123456789,
                timers={{"cli.fig7": 0.7071067811865476}},
                counters={{"index.candidates": 12345}},
                outputs={{"fig7": "ab" * 32}})
Ledger({str(tmp_path)!r}).append(m)
print(m.to_json())
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              check=True)
        expected = proc.stdout.strip()
        (got,) = Ledger(tmp_path).runs()
        assert got.to_json() == expected
        assert got.timers["cli.fig7"] == 0.7071067811865476

    def test_concurrent_appends_stay_whole(self, tmp_path):
        """Two processes each append 50 manifests of over 300 KB to one
        ledger at the same time; every line reads back whole."""
        go = tmp_path / "go"
        script = f"""
import sys, time
from pathlib import Path
sys.path.insert(0, {SRC!r})
from repro.obs.ledger import Ledger
from repro.obs.manifest import RunManifest
tag = sys.argv[1]
ledger = Ledger({str(tmp_path / "led")!r})
while not Path({str(go)!r}).exists():
    time.sleep(0.001)
for i in range(50):
    ledger.append(RunManifest(
        run_id=f"{{tag}}{{i:03d}}", kind="cli", command="fig7",
        started="2026-08-06T00:00:00+00:00", duration_s=1.0,
        extra={{"pad": tag * 300_000}}))
"""
        procs = [subprocess.Popen([sys.executable, "-c", script, tag])
                 for tag in ("a", "b")]
        go.touch()
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        ledger = Ledger(tmp_path / "led")
        runs = ledger.runs()
        assert ledger.skipped == 0
        assert len(runs) == 100
        assert sorted(r.run_id for r in runs) == sorted(
            f"{tag}{i:03d}" for tag in "ab" for i in range(50))
        for run in runs:
            assert run.extra["pad"] == run.run_id[0] * 300_000


class TestIngestBench:
    def _write(self, tmp_path, doc) -> Path:
        path = tmp_path / "BENCH_runtime.json"
        path.write_text(json.dumps(doc))
        return path

    def test_schema_v1(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": "bench-runtime/1",
            "generated_unix": 1754000000.0,
            "python": "3.11.0", "machine": "x86_64",
            "stages_seconds": {"overlay_fires": 2.5},
            "stage_calls": {"overlay_fires": 3},
            "counters": {"index.hits": 42},
            "sections": {"overlay_2017": {"serial_s": 1.0}},
        })
        m = ingest_bench(path)
        assert m.kind == "bench"
        assert m.started.startswith("2025-")       # unix -> ISO UTC
        assert m.git_sha is None
        assert m.timers == {"overlay_fires": 2.5}
        assert m.extra["sections"]["overlay_2017"]["serial_s"] == 1.0
        assert m.extra["bench_schema"] == "bench-runtime/1"

    def test_schema_v2(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": "bench-runtime/2",
            "generated_iso": "2026-08-06T10:00:00+00:00",
            "git_sha": "d" * 40, "cpu_count": 16,
            "python": "3.12.0", "machine": "arm64",
            "stages_seconds": {"overlay_fires": 2.0},
            "stage_calls": {}, "counters": {}, "sections": {},
        })
        m = ingest_bench(path)
        assert m.started == "2026-08-06T10:00:00+00:00"
        assert m.git_sha == "d" * 40
        assert m.cpu_count == 16

    def test_deterministic_run_id(self, tmp_path):
        doc = {"schema": "bench-runtime/2",
               "generated_iso": "2026-08-06T10:00:00+00:00",
               "stages_seconds": {}, "sections": {}}
        path = self._write(tmp_path, doc)
        assert ingest_bench(path).run_id == ingest_bench(path).run_id

    def test_unknown_schema_rejected(self, tmp_path):
        path = self._write(tmp_path, {"schema": "bench-runtime/99"})
        with pytest.raises(ValueError, match="unknown bench schema"):
            ingest_bench(path)


class TestCompareRuns:
    def test_deltas_and_drift_buckets(self):
        a = _run("a", timers={"cli.fig7": 1.0, "gone": 0.2},
                 counters={"c": 10},
                 outputs={"fig7": "aa" * 32, "old": "cc" * 32},
                 artifacts={"hazard": {"seconds": 1, "sha256": "x"}})
        b = _run("b", timers={"cli.fig7": 2.0, "new": 0.3},
                 counters={"c": 15},
                 outputs={"fig7": "bb" * 32, "fresh": "dd" * 32},
                 artifacts={"hazard": {"seconds": 2, "sha256": "y"}})
        diff = compare_runs(a, b)
        timers = {name: (av, bv) for name, av, bv in diff["timers"]}
        assert timers["cli.fig7"] == (1.0, 2.0)
        assert timers["gone"] == (0.2, 0.0)
        assert timers["new"] == (0.0, 0.3)
        assert diff["counters"] == [("c", 10, 15)]
        assert diff["outputs"]["changed"] == ["fig7"]
        assert diff["outputs"]["added"] == ["fresh"]
        assert diff["outputs"]["removed"] == ["old"]
        assert diff["artifacts"]["changed"] == ["hazard"]

    def test_min_seconds_filters_noise(self):
        a = _run("a", timers={"big": 1.0, "tiny": 0.001})
        b = _run("b", timers={"big": 1.1, "tiny": 0.002})
        diff = compare_runs(a, b, min_seconds=0.01)
        assert [name for name, *_ in diff["timers"]] == ["big"]

    def test_identical_runs_show_no_drift(self):
        a, b = _run("a"), _run("b")
        diff = compare_runs(a, b)
        assert diff["outputs"]["changed"] == []
        assert diff["artifacts"]["changed"] == []


class TestGateCheck:
    def _history(self, n=5, seconds=1.0, sha="aa" * 32):
        return [_run(f"base{i}", timers={"cli.fig7": seconds},
                     counters={"index.candidates": 10_000},
                     outputs={"fig7": sha}) for i in range(n)]

    def test_no_baseline_passes_vacuously(self):
        report = gate_check([_run("only")], baseline=5)
        assert report.ok and not report.has_baseline

    def test_timer_regression_flagged(self):
        runs = self._history() + [
            _run("slow", timers={"cli.fig7": 2.0},
                 outputs={"fig7": "aa" * 32})]
        report = gate_check(runs, baseline=5, threshold=1.3)
        assert not report.ok
        (reg,) = report.regressions
        assert reg["name"] == "cli.fig7" and reg["kind"] == "timer"
        assert reg["ratio"] == pytest.approx(2.0)
        assert report.drift == []

    def test_median_absorbs_one_outlier_in_the_baseline(self):
        runs = self._history(4, seconds=1.0) \
            + [_run("spike", timers={"cli.fig7": 30.0},
                    outputs={"fig7": "aa" * 32})] \
            + [_run("now", timers={"cli.fig7": 1.1},
                    outputs={"fig7": "aa" * 32})]
        report = gate_check(runs, baseline=5, threshold=1.3)
        assert report.ok

    def test_drift_is_not_a_regression(self):
        runs = self._history() + [
            _run("seeded", timers={"cli.fig7": 1.0},
                 outputs={"fig7": "ff" * 32},
                 artifacts={"hazard": {"seconds": 0.9,
                                       "sha256": "ee" * 32}})]
        report = gate_check(runs, baseline=5)
        assert report.ok
        kinds = {(d["kind"], d["name"]) for d in report.drift}
        assert ("output", "fig7") in kinds
        assert ("artifact", "hazard") in kinds

    def test_noise_floor_skips_tiny_timers(self):
        runs = [_run(f"b{i}", timers={"cli.fig7": 0.001})
                for i in range(3)] + \
            [_run("now", timers={"cli.fig7": 0.004})]
        report = gate_check(runs, baseline=3, min_seconds=0.05)
        assert report.ok and report.skipped_small == 1

    def test_counter_regression_needs_ratio_and_absolute_floor(self):
        base = [_run(f"b{i}", counters={"index.candidates": 10_000})
                for i in range(3)]
        blown = base + [_run("now",
                             counters={"index.candidates": 20_000})]
        report = gate_check(blown, baseline=3, threshold=1.3)
        assert any(r["kind"] == "counter" for r in report.regressions)
        # over the ratio but under the absolute floor: not flagged
        small = [_run(f"s{i}", counters={"pool.created": 1})
                 for i in range(3)] + \
            [_run("now2", counters={"pool.created": 3})]
        assert gate_check(small, baseline=3).ok

    def test_stage_filter_restricts_the_gate(self):
        runs = self._history() + [
            _run("slow", timers={"cli.fig7": 2.0},
                 outputs={"fig7": "aa" * 32})]
        assert gate_check(runs, baseline=5, stage="table1").ok
        assert not gate_check(runs, baseline=5, stage="fig7").ok
