"""``BENCH_runtime.json`` accumulates: sessions merge, never erase.

A benchmark session that records one section must leave every other
section of the file — another session's, or the ``e2e`` section that
``e2ebench/run.py --bench-json`` merges in — exactly as it was.
"""

import json

from conftest import merge_bench_json


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def test_one_section_session_keeps_e2e_byte_identical(tmp_path):
    path = tmp_path / "BENCH_runtime.json"
    e2e = {"engine_seed": {
        "generated_iso": "2026-01-01T00:00:00+00:00", "git_sha": "aaa",
        "metrics": {"wall_s": {"value": 0.2209, "unit": "s"}},
        "skipped_asserts": []}}
    older = {"generated_iso": "2026-01-02T00:00:00+00:00",
             "git_sha": "bbb", "serial_s": 1.5}
    path.write_text(_dump({
        "schema": "bench-runtime/2", "generated_iso": "old",
        "git_sha": "bbb",
        "sections": {"e2e": e2e, "stream_tick": older}}) + "\n")

    merge_bench_json(path, {
        "schema": "bench-runtime/2",
        "generated_iso": "2026-02-03T00:00:00+00:00", "git_sha": "ccc",
        "counters": {"pool.tasks": 8},
        "sections": {"overlay_2017": {"serial_s": 0.5}}})

    doc = json.loads(path.read_text())
    assert _dump(doc["sections"]["e2e"]) == _dump(e2e)
    assert doc["sections"]["stream_tick"] == older
    assert doc["sections"]["overlay_2017"] == {
        "serial_s": 0.5,
        "generated_iso": "2026-02-03T00:00:00+00:00", "git_sha": "ccc"}
    assert doc["git_sha"] == "ccc" and doc["counters"] == {"pool.tasks": 8}
    assert not path.with_name(path.name + ".tmp").exists()


def test_missing_or_corrupt_file_starts_fresh(tmp_path):
    path = tmp_path / "BENCH_runtime.json"
    report = {"generated_iso": "t", "git_sha": "s",
              "sections": {"a": {"x": 1}}}
    merge_bench_json(path, report)
    path.write_text("{not json")
    merge_bench_json(path, report)
    assert json.loads(path.read_text())["sections"] == {
        "a": {"x": 1, "generated_iso": "t", "git_sha": "s"}}
