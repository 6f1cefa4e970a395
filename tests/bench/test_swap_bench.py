"""SwapBenchmark: the swap's build time and the modeled swap dip."""

from __future__ import annotations

import json

import pytest

from repro.bench.swap_bench import (
    SwapBenchmark,
    render_dip_cells,
    render_rebuild_cells,
)
from repro.cli import main
from repro.errors import ExperimentError
from repro.obs import BenchCollector, validate_bench_document

#: Small scales keep the wall-clock family fast in CI; the acceptance
#: 5x bar is asserted only at the 20k scale (the `hotswap` CLI run).
SMALL = dict(n_patterns=200, rebuild_patterns=400, text_bytes=2048)


class TestRebuildFamily:
    def test_delta_build_beats_full_rebuild(self):
        """The swap's build of a delta beats the trie path's full build."""
        bench = SwapBenchmark(**SMALL)
        cell = bench.run_rebuild_cell(0.01, repeats=1)
        assert cell.build_seconds < cell.trie_seconds
        assert cell.speedup == cell.trie_seconds / cell.build_seconds > 1.0
        assert cell.n_added == cell.n_removed == 4  # 1% of 400

    def test_acceptance_bar_enforced(self):
        bench = SwapBenchmark(**SMALL)
        with pytest.raises(ExperimentError, match="faster than"):
            # An absurd bar must trip the gate, proving it is active.
            bench.run_rebuild_cells([0.01], repeats=1, min_speedup=1e9)

    def test_bar_can_be_disabled(self):
        bench = SwapBenchmark(**SMALL)
        cells = bench.run_rebuild_cells(
            [0.01], repeats=1, min_speedup=None
        )
        assert len(cells) == 1

    def test_render_mentions_speedup(self):
        bench = SwapBenchmark(**SMALL)
        cells = bench.run_rebuild_cells([0.01], repeats=1, min_speedup=None)
        out = render_rebuild_cells(cells)
        assert "speedup" in out and "x" in out
        assert "trie path" in out and "swap build" in out


class TestDipFamily:
    def test_dip_respects_budget(self):
        bench = SwapBenchmark(**SMALL)
        for cell in bench.run_dip_cells([2, 4]):
            assert 0.0 <= cell.dip <= bench.dip_budget + 1e-12
            assert cell.during_swap_seconds > cell.steady_seconds
            assert cell.swap_window_batches >= 1

    def test_cells_are_deterministic(self):
        a = SwapBenchmark(**SMALL).run_dip_cells([4])
        b = SwapBenchmark(**SMALL).run_dip_cells([4])
        assert a == b

    def test_bounded_dip_stretches_window(self):
        tight = SwapBenchmark(dip_budget=0.01, **SMALL).run_dip_cell(4)
        loose = SwapBenchmark(dip_budget=0.5, **SMALL).run_dip_cell(4)
        assert tight.swap_window_batches > loose.swap_window_batches
        assert tight.dip <= 0.01 + 1e-12

    def test_collector_export_validates(self, tmp_path):
        collector = BenchCollector(label="hotswap")
        bench = SwapBenchmark(collector=collector, **SMALL)
        bench.run_dip_cells([4])
        doc = collector.as_document()
        validate_bench_document(doc)
        (labels,) = [
            sorted(c["kernels"]) for c in doc["cells"] if c["kernels"]
        ]
        assert labels == ["during_swap", "steady"]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ExperimentError, match="dip_budget"):
            SwapBenchmark(dip_budget=0.0)
        bench = SwapBenchmark(**SMALL)
        with pytest.raises(ExperimentError, match="batch_size"):
            bench.run_dip_cell(0)
        with pytest.raises(ExperimentError, match="repeats"):
            bench.run_rebuild_cell(0.01, repeats=0)

    def test_render_mentions_window(self):
        bench = SwapBenchmark(**SMALL)
        out = render_dip_cells(bench.run_dip_cells([4]))
        assert "window" in out and "dip" in out


class TestHotswapCli:
    def test_dip_only_run_writes_valid_doc(self, tmp_path, capsys):
        out = tmp_path / "BENCH_hotswap.json"
        rc = main(
            [
                "hotswap", "--skip-rebuild", "--patterns", "200",
                "--batch-sizes", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "swap throughput dip" in text
        doc = json.loads(out.read_text())
        validate_bench_document(doc)

    def test_demo_narrates_abort_and_rollback(self, capsys):
        rc = main(
            ["hotswap", "--demo", "--skip-rebuild", "--patterns", "200",
             "--batch-sizes", "4"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "aborted" in text
        assert "rollback" in text

    def test_rebuild_family_runs_small(self, capsys):
        rc = main(
            ["hotswap", "--patterns", "200", "--rebuild-patterns", "400",
             "--churns", "0.01", "--repeats", "1", "--min-speedup", "0",
             "--batch-sizes", "4"]
        )
        assert rc == 0
        assert "rebuild-vs-churn" in capsys.readouterr().out

    def test_bad_churns_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hotswap", "--churns", "2.0"])
        assert exc.value.code == 2
        assert "--churns" in capsys.readouterr().err

    def test_campaign_swap_flag(self, capsys):
        rc = main(["campaign", "--swap", "--trials", "2", "--seed", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "swap_stt_mismatch" in text
        assert "invariant HELD" in text

    def test_campaign_swap_excludes_kinds(self, capsys):
        rc = main(
            ["campaign", "--swap", "--kinds", "stt_bitflip", "--trials", "1"]
        )
        assert rc == 2
