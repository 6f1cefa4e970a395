"""SloBenchmark: deterministic burn episode, cell export, CLI gates."""

from __future__ import annotations

import json

import pytest

from repro.bench.slo_bench import (
    N_WINDOWS,
    PHASES,
    SloBenchmark,
    TenantSpec,
    render_dashboard,
)
from repro.cli import main
from repro.errors import ExperimentError
from repro.obs import (
    BenchCollector,
    validate_bench_document,
    validate_event_record,
)
from repro.obs.slo import STATUSZ_SCHEMA


@pytest.fixture(scope="module")
def report():
    """One shared seeded run (the bench self-gates before returning)."""
    return SloBenchmark().run()


class TestEpisode:
    def test_victim_fires_then_clears(self, report):
        assert report.victim == "acme"
        edges = [
            t.action for _, t in report.transitions
            if t.tenant == report.victim and t.objective == "request_p99"
        ]
        assert edges == ["fired", "cleared"]
        assert not report.breached

    def test_bystanders_untouched(self, report):
        assert all(
            t.tenant == report.victim for _, t in report.transitions
        )
        for row in report.rows:
            if row.tenant != report.victim:
                assert row.alerts_fired == 0
                assert row.peak_slow_burn < 2.0
                assert not row.firing

    def test_burn_episode_shape(self, report):
        """The dip family: latency spikes in the burst, then recovers."""
        steady = report.phase_p99["steady"]
        burst = report.phase_p99["during_burst"]
        recovery = report.phase_p99["recovery"]
        assert burst > 2.0 * steady
        assert recovery < 1.5 * steady
        victim_row = report.rows[0]
        assert victim_row.alerts_fired == 1
        assert victim_row.alerts_cleared == 1
        assert victim_row.peak_slow_burn >= 2.0

    def test_rows_decompose_latency(self, report):
        for row in report.rows:
            assert row.requests > 0
            assert row.matches >= 0
            for block in (row.queue_wait, row.pipeline, row.e2e):
                assert set(block) == {
                    "count", "mean", "p50", "p95", "p99"
                }
                assert block["count"] == row.requests
            # e2e dominates both of its components at every quantile.
            assert row.e2e["p99"] >= row.queue_wait["p99"]
            assert row.e2e["p99"] >= row.pipeline["p99"]

    def test_status_and_events(self, report):
        assert report.status["schema"] == STATUSZ_SCHEMA
        assert report.status["queue"]["depth"] == 0
        assert report.status["slo"]["breached"] is False
        events = [
            json.loads(line)
            for line in report.events_jsonl.splitlines()
        ]
        assert events
        for record in events:
            validate_event_record(record)
        names = {e["event"] for e in events}
        assert {"serve_drain", "slo_burn_alert", "slo_burn_clear"} \
            <= names


class TestDeterminism:
    def test_bit_identical_replay(self, report):
        again = SloBenchmark().run()
        assert again.rows == report.rows
        assert again.transitions == report.transitions
        assert again.phase_p99 == report.phase_p99
        assert render_dashboard(again) == render_dashboard(report)

    def test_seed_changes_numbers_not_shape(self, report):
        other = SloBenchmark(seed=7).run()
        assert [r.tenant for r in other.rows] \
            == [r.tenant for r in report.rows]
        assert other.rows != report.rows


class TestGates:
    def test_no_burst_no_episode_is_a_failure(self):
        """The self-gate trips when the burst cannot breach."""
        with pytest.raises(ExperimentError, match="fire-then-clear"):
            SloBenchmark(burst_factor=2).run()

    def test_constructor_validation(self):
        with pytest.raises(ExperimentError, match="tenant"):
            SloBenchmark(tenants=())
        with pytest.raises(ExperimentError, match="burst_factor"):
            SloBenchmark(burst_factor=1)

    def test_phase_helpers(self):
        bench = SloBenchmark()
        assert N_WINDOWS == 10
        assert [bench.phase_of(w) for w in (0, 2, 3, 4, 5, 9)] == [
            "steady", "steady", "during_burst", "during_burst",
            "recovery", "recovery",
        ]
        victim, bystander = bench.tenants[0], bench.tenants[1]
        assert bench.requests_in(victim, 3) \
            == victim.requests_per_window * bench.burst_factor
        assert bench.requests_in(bystander, 3) \
            == bystander.requests_per_window
        assert bench.requests_in(victim, 0) == victim.requests_per_window


class TestCellExport:
    @pytest.fixture(scope="class")
    def document(self):
        collector = BenchCollector(label="slo")
        SloBenchmark(collector=collector).run()
        return collector.as_document()

    def test_document_validates(self, document):
        validate_bench_document(document)

    def test_cell_families(self, document):
        labels = sorted(c["size_label"] for c in document["cells"])
        assert labels == [
            "slo_acme", "slo_globex", "slo_initech", "slodip_acme",
        ]
        for cell in document["cells"]:
            if cell["size_label"].startswith("slodip_"):
                assert sorted(cell["kernels"]) == sorted(PHASES)
            else:
                assert sorted(cell["kernels"]) == [
                    "e2e_p50", "e2e_p95", "e2e_p99", "pipeline_p99",
                    "queue_wait_p50", "queue_wait_p99",
                ]

    def test_dip_cell_mirrors_episode(self, document):
        (dip,) = [
            c for c in document["cells"]
            if c["size_label"] == "slodip_acme"
        ]
        seconds = {
            name: k["seconds"] for name, k in dip["kernels"].items()
        }
        assert seconds["during_burst"] > seconds["steady"]
        assert seconds["recovery"] < seconds["during_burst"]

    def test_runner_config_recorded(self, document):
        config = document["config"]
        assert config["slo_tenants"] == 3
        assert config["slo_burst_factor"] == 5


class TestCli:
    def test_demo_exits_zero_and_renders_episode(self, capsys):
        assert main(["slo", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "fired" in out and "cleared" in out
        assert "slo state: healthy" in out
        for tenant in ("acme", "globex", "initech"):
            assert tenant in out

    def test_burst_factor_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["slo", "--burst-factor", "1"])
        assert exc.value.code == 2
        assert "--burst-factor" in capsys.readouterr().err

    def test_failed_episode_exits_one(self, capsys):
        assert main(["slo", "--burst-factor", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_out_writes_validating_document(self, tmp_path, capsys):
        path = tmp_path / "slo.json"
        assert main(["slo", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        validate_bench_document(doc)
        assert len(doc["cells"]) == 4


def test_custom_tenant_mix():
    bench = SloBenchmark(
        tenants=(
            TenantSpec("solo", 30, requests_per_window=6),
            TenantSpec("other", 50, requests_per_window=4),
        ),
    )
    report = bench.run()
    assert report.victim == "solo"
    assert [r.tenant for r in report.rows] == ["solo", "other"]
