"""The ``repro-ac serve`` subcommand: demo, sweep, exports, gating."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import validate_bench_document


class TestServeCommand:
    def test_sweep_prints_table(self, capsys):
        rc = main(["serve", "--batch-sizes", "1,8", "--text-bytes", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "batch" in out

    def test_demo_narrates_cache_and_pipeline(self, capsys):
        rc = main(
            ["serve", "--demo", "--batch-sizes", "1", "--text-bytes", "256"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache_hit=True" in out
        assert "bind_skipped=True" in out
        assert "makespan" in out

    def test_out_writes_valid_bench_document(self, tmp_path, capsys):
        path = tmp_path / "BENCH_serve.json"
        rc = main(
            ["serve", "--batch-sizes", "2,8", "--text-bytes", "512",
             "--out", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        validate_bench_document(doc)
        assert [c["size_label"] for c in doc["cells"]] == [
            "batch2", "batch8",
        ]

    def test_trace_out_writes_perfetto_doc(self, tmp_path, capsys):
        path = tmp_path / "serve_trace.json"
        rc = main(
            ["serve", "--demo", "--batch-sizes", "1",
             "--text-bytes", "256", "--trace-out", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "serve_batch" in names
        assert "serve_drain" in names

    def test_bad_batch_sizes_exit_2(self, capsys):
        for sizes in ("x", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--batch-sizes", sizes])
            assert exc.value.code == 2
            assert "--batch-sizes" in capsys.readouterr().err

    def test_trace_out_requires_demo(self, capsys):
        assert main(["serve", "--trace-out", "t.json"]) == 2
