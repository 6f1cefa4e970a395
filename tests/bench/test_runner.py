"""Tests for the experiment runner (small grids for speed)."""

import json
from collections import Counter
from pathlib import Path

import pytest

import repro.kernels.base as base_mod
from repro.bench.experiments import run_figure
from repro.bench.runner import SHARED_VARIANTS, ExperimentRunner, scale_breakdown
from repro.errors import ExperimentError
from repro.gpu import gtx285
from repro.gpu.counters import TimingBreakdown
from repro.gpu.device import Device

#: Every shared variant of the 1MB/p1000 cell (scale 0.005, seed 2013)
#: as five separate launches computed them.
GOLDEN_FAMILY = json.loads(
    (Path(__file__).parent / "golden_shared_family.json").read_text()
)


@pytest.fixture(scope="module")
def runner():
    # Tiny scale: every cell sims at the 200 KB floor or its paper size.
    return ExperimentRunner(scale=0.001, seed=99)


class TestRunCell:
    def test_basic_cell(self, runner):
        cell = runner.run_cell("50KB", 100)
        assert cell.serial is not None
        assert set(cell.kernels) == {"global", "shared"}
        assert cell.paper_bytes == 50_000
        assert cell.n_states > 100

    def test_ordering_shared_global_serial(self, runner):
        """The paper's core result on a representative cell."""
        cell = runner.run_cell("1MB", 1000)
        assert (
            cell.seconds("shared")
            < cell.seconds("global")
            < cell.seconds("serial")
        )

    def test_speedup_accessor(self, runner):
        cell = runner.run_cell("50KB", 100)
        assert cell.speedup("shared", "serial") == pytest.approx(
            cell.seconds("serial") / cell.seconds("shared")
        )

    def test_missing_kernel_raises(self, runner):
        cell = runner.run_cell("50KB", 100, kernels=("shared",))
        with pytest.raises(ExperimentError):
            cell.seconds("global")
        with pytest.raises(ExperimentError):
            cell.seconds("serial")

    def test_unknown_kernel_rejected(self, runner):
        with pytest.raises(ExperimentError, match="unknown kernels"):
            runner.run_cell("50KB", 100, kernels=("warp_drive",))

    def test_cell_cache_hits(self, runner):
        a = runner.run_cell("50KB", 100)
        b = runner.run_cell("50KB", 100)
        assert a is b

    def test_config_mutation_invalidates_cache(self):
        # Regression: the cache key ignored the tunable knobs, so
        # mutating one after a run returned the stale cell.
        runner = ExperimentRunner(scale=0.001, seed=99)
        a = runner.run_cell("50KB", 100, kernels=("shared",))
        runner.wave_correction = True
        b = runner.run_cell("50KB", 100, kernels=("shared",))
        assert a is not b
        assert a.seconds("shared") != b.seconds("shared")
        g1 = runner.run_cell("50KB", 100, kernels=("global",))
        runner.stt_backend = "bitmap"
        g2 = runner.run_cell("50KB", 100, kernels=("global",))
        assert g2 is not g1
        assert g2.stt["backend"] == "bitmap"
        # Restoring the original knobs finds the original cell again.
        runner.wave_correction = False
        runner.stt_backend = "compact"
        assert runner.run_cell("50KB", 100, kernels=("shared",)) is a

    def test_dfa_cache_shared_across_sizes(self, runner):
        runner.run_cell("50KB", 100)
        dfa_a = runner.dfa_for(100)
        runner.run_cell("1MB", 100)
        assert runner.dfa_for(100) is dfa_a

    def test_scheme_variants(self, runner):
        cell = runner.run_cell(
            "50KB", 100, kernels=("shared", "shared_coalesce", "shared_naive")
        )
        assert cell.seconds("shared") <= cell.seconds("shared_coalesce")
        assert cell.seconds("shared_coalesce") < cell.seconds("shared_naive")

    def test_pfac_runs(self, runner):
        cell = runner.run_cell("50KB", 100, kernels=("pfac",))
        assert cell.kernels["pfac"].seconds > 0

    def test_kernels_disagreeing_on_matches_raise(self, monkeypatch):
        """A cell fails when its GPU kernels find different match counts."""
        import dataclasses

        import repro.bench.runner as runner_mod
        from repro.core.match import MatchResult

        real = runner_mod.run_pfac_kernel

        def drops_one_match(*args, **kwargs):
            result = real(*args, **kwargs)
            m = result.matches
            return dataclasses.replace(
                result, matches=MatchResult(m.ends[1:], m.pattern_ids[1:])
            )

        monkeypatch.setattr(runner_mod, "run_pfac_kernel", drops_one_match)
        fresh = ExperimentRunner(scale=0.001, seed=99)
        with pytest.raises(ExperimentError, match="disagree on the match count"):
            fresh.run_cell("50KB", 100, kernels=("shared", "pfac"))

    def test_grid_order(self, runner):
        cells = runner.run_grid(["50KB", "1MB"], [100], kernels=("shared",))
        assert [(c.size_label, c.n_patterns) for c in cells] == [
            ("50KB", 100),
            ("1MB", 100),
        ]

    def test_collector_sees_each_grid_cell_once_in_order(self):
        seen = []

        class Recorder:
            def on_runner(self, config):
                pass

            def on_cell(self, cell, cached=False):
                seen.append(((cell.size_label, cell.n_patterns), cached))

        runner = ExperimentRunner(scale=0.001, seed=99, collector=Recorder())
        runner.run_cell("1MB", 20, kernels=("serial",))
        cells = runner.run_grid(["50KB", "1MB"], [20, 20], kernels=("serial",))
        assert [(c.size_label, c.n_patterns) for c in cells] == [
            ("50KB", 20), ("50KB", 20), ("1MB", 20), ("1MB", 20),
        ]
        assert seen == [
            (("1MB", 20), False),
            (("50KB", 20), False),
            (("1MB", 20), True),
        ]

    def test_matches_counted(self, runner):
        cell = runner.run_cell("50KB", 100, kernels=("shared", "global"))
        assert cell.kernels["shared"].matches == cell.kernels["global"].matches
        assert cell.kernels["shared"].matches > 0


def spy_launches(monkeypatch) -> Counter:
    """Count texture binds, texture checks and AC kernel scans."""
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Device, "bind_texture")
    counted(Device, "verify_texture")
    counted(base_mod, "scan_tiled")
    return calls


class TestSharedFamily:
    """A cell prices its shared variants from one scan on one device."""

    def test_variants_match_separate_launches(self):
        cell = ExperimentRunner(scale=0.005, seed=2013).run_cell(
            "1MB", 1000, kernels=tuple(SHARED_VARIANTS)
        )
        assert set(GOLDEN_FAMILY) == set(SHARED_VARIANTS)
        for name, want in GOLDEN_FAMILY.items():
            got = cell.kernels[name]
            assert got.name == name
            assert repr(got.seconds) == want["seconds"]
            assert got.gbps == want["gbps"]
            assert got.regime == want["regime"]
            assert got.matches == want["matches"]
            assert got.counters == want["counters"]

    def test_one_bind_one_verify_one_scan(self, monkeypatch):
        calls = spy_launches(monkeypatch)
        ExperimentRunner(scale=0.005, seed=2013).run_cell(
            "1MB", 1000, kernels=tuple(SHARED_VARIANTS)
        )
        assert calls == {"bind_texture": 1, "verify_texture": 1, "scan_tiled": 1}

    def test_figures_never_rescan_a_cell(self, monkeypatch):
        """Later figures reuse the scans and binds of earlier ones: one
        global and one shared launch per cell."""
        calls = spy_launches(monkeypatch)
        runner = ExperimentRunner(scale=0.005, seed=2013)
        figures = (
            "fig13", "fig15", "fig21", "fig22", "fig23",
            "abl_naive", "abl_transposed", "abl_texture",
        )
        for figure in figures:
            run_figure(figure, runner, ["1MB"], [100, 1000])
        assert calls == {"bind_texture": 4, "verify_texture": 4, "scan_tiled": 4}

    def test_figures_never_rewalk_the_cpu_model(self, monkeypatch):
        """Every figure below asks both cells for a CPU baseline; the
        CPU model walks each cell once."""
        import repro.bench.runner as runner_mod

        walks = []
        real = runner_mod.feed_sinks

        def counted(*args, **kwargs):
            walks.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "feed_sinks", counted)
        runner = ExperimentRunner(scale=0.005, seed=2013)
        for figure in ("fig13", "fig18", "fig16", "fig21"):
            run_figure(figure, runner, ["1MB"], [100, 1000])
        assert len(walks) == 2

    def test_profiler_sees_the_requested_kernels(self):
        from repro.obs import KernelProfiler

        profiler = KernelProfiler()
        runner = ExperimentRunner(scale=0.005, seed=2013, profiler=profiler)
        runner.run_cell("1MB", 100, kernels=("shared",))
        runner.run_cell("1MB", 100, kernels=("shared", "shared_naive"))
        assert [(r.kernel, r.scheme) for r in profiler.reports] == [
            ("shared_memory", "diagonal"),
            ("shared_memory", "diagonal"),
            ("shared_memory", "naive"),
        ]


class TestWaveCorrection:
    def test_small_cells_get_slower_only(self):
        plain = ExperimentRunner(scale=0.001, seed=5)
        corrected = ExperimentRunner(scale=0.001, seed=5, wave_correction=True)
        # 50 KB global-only: a 1-block paper-scale grid — heavy tail.
        a = plain.run_cell("50KB", 100, kernels=("global",))
        b = corrected.run_cell("50KB", 100, kernels=("global",))
        assert b.seconds("global") > a.seconds("global")
        # 200 MB: thousands of blocks — correction is negligible.
        a_big = plain.run_cell("200MB", 100, kernels=("global",))
        b_big = corrected.run_cell("200MB", 100, kernels=("global",))
        assert b_big.seconds("global") == pytest.approx(
            a_big.seconds("global"), rel=0.05
        )

    def test_matches_unaffected(self):
        corrected = ExperimentRunner(scale=0.001, seed=5, wave_correction=True)
        plain = ExperimentRunner(scale=0.001, seed=5)
        a = plain.run_cell("50KB", 100, kernels=("shared",))
        b = corrected.run_cell("50KB", 100, kernels=("shared",))
        assert a.kernels["shared"].matches == b.kernels["shared"].matches


class TestScaleBreakdown:
    def make_tb(self, comp, mem, bw):
        return TimingBreakdown(
            compute_cycles=comp,
            memory_latency_cycles=mem,
            bandwidth_cycles=bw,
            launch_overhead_cycles=1000.0,
            total_cycles=0.0,
            regime="compute_bound",
            resident_warps=8,
            mwp=8,
            seconds=0.0,
        )

    def test_linear_scaling_of_body(self):
        cfg = gtx285()
        tb = self.make_tb(1e6, 2e5, 1e5)
        s1, _, r1 = scale_breakdown(tb, 1.0, cfg, 10**6)
        s10, _, r10 = scale_breakdown(tb, 10.0, cfg, 10**7)
        assert r1 == r10 == "compute_bound"
        # Launch overhead is fixed; body scales 10x.
        body1 = s1 - cfg.cycles_to_seconds(1000.0)
        body10 = s10 - cfg.cycles_to_seconds(1000.0)
        assert body10 == pytest.approx(10 * body1)

    def test_regime_can_flip_with_scale(self):
        # Scaling is uniform so regimes never flip from scaling alone;
        # but the helper must recompute them from components.
        cfg = gtx285()
        tb = self.make_tb(1e5, 2e6, 1e5)
        _, _, regime = scale_breakdown(tb, 2.0, cfg, 10**6)
        assert regime == "latency_bound"

    def test_invalid_factor(self):
        cfg = gtx285()
        tb = self.make_tb(1, 1, 1)
        with pytest.raises(ExperimentError):
            scale_breakdown(tb, 0.0, cfg, 1)

    def test_gbps_reported_for_paper_bytes(self):
        cfg = gtx285()
        tb = self.make_tb(1e6, 0, 0)
        s, gbps, _ = scale_breakdown(tb, 1.0, cfg, 10**6)
        assert gbps == pytest.approx(10**6 * 8 / s / 1e9)
