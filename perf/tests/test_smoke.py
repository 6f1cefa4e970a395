"""Smoke tests of the benchmark itself (run: ``python -m pytest perf/tests``).

Each workload runs for about a second on small inputs, untraced and
traced, in this process.  The tests check the metric contract of
``BENCHMARK.json``, the shape of the span tree, and that the output
checkers are not vacuous.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
from repro.kernels import segcache  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 1.0


@pytest.fixture(autouse=True)
def cold_segment_cache():
    """Runs in one process must not serve each other's scans."""
    segcache.clear()
    yield
    segcache.clear()


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert _units(BENCH["end_to_end"]) == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (n, u, b) for n, u, b, _ in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    out = run.run_workload(name, 2013, SECONDS, trace=False, smoke=True)
    result = out.result
    assert result["failed"] == 0, out.problems
    assert result["correct"], out.problems
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_a_sound_tree(name, tmp_path):
    out = run.run_workload(
        name, 2013, SECONDS, trace=True, smoke=True, trace_dir=tmp_path
    )
    result = out.result
    assert result["failed"] == 0, out.problems
    assert result["correct"], out.problems
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(BENCH["per_layer"])
    assert metrics["trace.unattributed_ratio"]["value"] <= run.MAX_UNATTRIBUTED

    spans = out.spans
    assert spans and tracing.check_tree(spans) == []
    roots = [s for s in spans if s.parent is None]
    assert {s.layer for s in roots} == {"bench"}
    assert {s.layer for s in spans} - {"bench"}, "no layer span was recorded"

    doc = json.loads((tmp_path / f"{name}-seed2013.trace.json").read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(spans)


def test_wrappers_are_removed_after_a_traced_run():
    import repro.core.tiled as tiled
    import repro.kernels.shared_mem as shared_mem

    before = (tiled.scan_tiled, shared_mem.scan_tiled)
    with tracing.installed(tracing.Recorder()):
        assert shared_mem.scan_tiled is tiled.scan_tiled
        assert tiled.scan_tiled is not before[0]
    assert (tiled.scan_tiled, shared_mem.scan_tiled) == before


def _drop_last(result):
    from repro import MatchResult

    return MatchResult(result.ends[:-1], result.pattern_ids[:-1])


def test_checker_sees_a_backend_that_drops_a_match(monkeypatch):
    import repro.core.multicore as multicore

    real = multicore.scan_multicore

    def lossy(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, matches=_drop_last(out.matches))

    monkeypatch.setattr(multicore, "scan_multicore", lossy)
    result = run.run_workload(
        "corpus_serial", 2013, SECONDS, trace=False, smoke=True
    ).result
    assert result["failed"] > 0
    assert not result["correct"]


def test_checker_sees_a_served_request_that_drops_a_match(monkeypatch):
    from repro.matcher import Matcher

    real = Matcher.scan_many

    def lossy(self, texts):
        results = real(self, texts)
        return [_drop_last(r) if len(r) else r for r in results]

    monkeypatch.setattr(Matcher, "scan_many", lossy)
    result = run.run_workload(
        "packet_serve", 2013, SECONDS, trace=False, smoke=True
    ).result
    assert result["failed"] > 0
    assert not result["correct"]


def test_cli_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "packet_serve",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in run.END_TO_END:
        assert name in proc.stdout and result["metrics"][name]["unit"] == unit


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns(
        "__pycache__", "out"
    ))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "packet_serve",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
