"""Tests for run manifests: fingerprints, environment, serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    checksum_text,
    environment,
    fingerprint,
    git_sha,
    new_run_id,
    utc_now_iso,
    version_string,
)


@dataclasses.dataclass
class _Result:
    counts: dict
    values: object
    label: str


class TestFingerprint:
    def test_deterministic_for_equal_content(self):
        a = _Result(counts={"x": 1, "y": 2},
                    values=np.arange(10, dtype=np.float64), label="s")
        b = _Result(counts={"y": 2, "x": 1},
                    values=np.arange(10, dtype=np.float64), label="s")
        assert fingerprint(a) == fingerprint(b)

    def test_content_changes_change_the_hash(self):
        base = _Result(counts={"x": 1}, values=np.arange(4), label="s")
        for mutant in (
            _Result(counts={"x": 2}, values=np.arange(4), label="s"),
            _Result(counts={"x": 1}, values=np.arange(5), label="s"),
            _Result(counts={"x": 1}, values=np.arange(4), label="t"),
        ):
            assert fingerprint(base) != fingerprint(mutant)

    def test_dtype_and_shape_are_part_of_the_identity(self):
        a = np.zeros(4, dtype=np.int64)
        b = np.zeros(4, dtype=np.float64)
        c = np.zeros((2, 2), dtype=np.int64)
        assert len({fingerprint(a), fingerprint(b),
                    fingerprint(c)}) == 3

    def test_array_and_list_differ(self):
        assert fingerprint(np.array([1, 2, 3])) != \
            fingerprint([1, 2, 3])

    def test_primitives_and_containers(self):
        assert fingerprint((1, "a", None, 2.5)) == \
            fingerprint((1, "a", None, 2.5))
        assert fingerprint({1, 2, 3}) == fingerprint({3, 2, 1})
        assert fingerprint([1, 2]) != fingerprint([2, 1])
        assert fingerprint(True) != fingerprint(1)

    def test_checksum_text(self):
        assert checksum_text("abc") == checksum_text("abc")
        assert checksum_text("abc") != checksum_text("abd")
        assert len(checksum_text("x")) == 64


class TestEnvironment:
    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef"
                                       for c in sha))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe" * 10)
        assert git_sha() == "cafe" * 10

    def test_environment_fields(self):
        env = environment()
        assert set(env) == {"version", "git_sha", "python", "machine",
                            "cpu_count"}
        assert env["cpu_count"] >= 1
        assert env["version"]

    def test_version_string(self):
        from repro import __version__
        assert version_string().startswith(f"repro {__version__} (")

    def test_utc_now_iso_and_run_id(self):
        stamp = utc_now_iso()
        assert "T" in stamp and stamp.endswith("+00:00")
        assert new_run_id() != new_run_id()
        assert len(new_run_id()) == 12


def _manifest(**overrides) -> RunManifest:
    base = dict(
        run_id="abc123def456", kind="cli", command="fig7",
        started="2026-08-06T12:00:00+00:00", duration_s=1.25,
        version="1.0.0", git_sha="f" * 40, python="3.11.1",
        machine="x86_64", cpu_count=8,
        argv=["-n", "2000", "fig7"],
        config={"workers": 2, "cache_enabled": True, "cache_dir": None},
        universe={"n_transceivers": 2000, "seed": 7,
                  "whp_resolution_deg": 0.1},
        timers={"cli.fig7": 1.2, "artifact.hazard": 1.1},
        timer_calls={"cli.fig7": 1, "artifact.hazard": 1},
        counters={"session.misses": 3, "index.candidates": 1000},
        artifacts={"hazard": {"seconds": 1.1, "sha256": "ab" * 32}},
        outputs={"fig7": "cd" * 32},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_round_trip_dict_and_json(self):
        m = _manifest()
        assert RunManifest.from_dict(m.to_dict()) == m
        assert RunManifest.from_json(m.to_json()) == m
        assert m.schema == MANIFEST_SCHEMA

    def test_to_json_is_canonical(self):
        a = _manifest(timers={"a": 1.0, "b": 2.0})
        b = _manifest(timers={"b": 2.0, "a": 1.0})
        assert a.to_json() == b.to_json()
        doc = json.loads(a.to_json())
        assert list(doc["timers"]) == ["a", "b"]

    def test_unknown_fields_survive_in_extra(self):
        d = _manifest().to_dict()
        d["future_field"] = {"x": 1}
        m = RunManifest.from_dict(d)
        assert m.extra["future_field"] == {"x": 1}

    def test_total_seconds_prefers_cli_timers(self):
        m = _manifest()
        assert m.total_seconds() == pytest.approx(1.2)
        bench = _manifest(kind="bench",
                          timers={"overlay": 2.0, "classify": 3.0})
        assert bench.total_seconds() == pytest.approx(5.0)

    def test_timer_for_resolution_order(self):
        m = _manifest(timers={"cli.fig7": 1.2, "artifact.fig7": 9.0,
                              "raw": 0.5})
        assert m.timer_for("fig7") == pytest.approx(1.2)
        assert m.timer_for("raw") == pytest.approx(0.5)
        assert m.timer_for("absent") is None
