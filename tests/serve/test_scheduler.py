"""ScanScheduler behavior: batching, pipeline model, failure isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PatternSet
from repro.errors import ReproError
from repro.matcher import Matcher
from repro.obs import KernelProfiler, Metrics, Tracer
from repro.resilience.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.serve import AutomatonCache, ScanScheduler, pattern_set_digest

IDS = ["he", "she", "his", "hers"]
AV = ["virus", "worm"]


class TestBatching:
    def test_groups_by_digest_in_arrival_order(self):
        sched = ScanScheduler(max_batch=8)
        sched.submit(IDS, "ushers")
        sched.submit(AV, "a worm")
        sched.submit(IDS, "she")
        reports = sched.drain()
        assert [r.n_requests for r in reports] == [2, 1]
        assert reports[0].digest == pattern_set_digest(IDS)
        assert reports[0].request_ids == [0, 2]
        assert reports[1].request_ids == [1]

    def test_max_batch_splits_a_group(self):
        sched = ScanScheduler(max_batch=2)
        for _ in range(5):
            sched.submit(IDS, "ushers")
        reports = sched.drain()
        assert [r.n_requests for r in reports] == [2, 2, 1]

    def test_ticket_result_triggers_drain(self):
        sched = ScanScheduler()
        t = sched.submit(IDS, "ushers")
        assert sched.queue_depth == 1
        assert len(t.result()) == 3
        assert sched.queue_depth == 0

    def test_drain_on_empty_queue_is_a_noop(self):
        sched = ScanScheduler()
        assert sched.drain() == []
        assert sched.reports == []

    def test_invalid_backend_and_batch_rejected(self):
        with pytest.raises(ReproError):
            ScanScheduler(backend="cuda")
        with pytest.raises(ReproError):
            ScanScheduler(max_batch=0)

    def test_malformed_dictionary_fails_at_submit(self):
        sched = ScanScheduler()
        with pytest.raises(ReproError):
            sched.submit([], "text")
        assert sched.queue_depth == 0


class TestCacheAndBindReuse:
    def test_repeat_pattern_set_hits_cache_and_skips_bind(self):
        sched = ScanScheduler()
        sched.scan_many(IDS, ["ushers"])
        sched.scan_many(IDS, ["hers", "she"])
        first, second = sched.reports
        assert not first.cache_hit and not first.bind_skipped
        assert second.cache_hit and second.bind_skipped
        assert second.timing is not None
        assert second.timing.bind_seconds == 0.0

    def test_shared_cache_across_schedulers(self):
        cache = AutomatonCache(4)
        a = ScanScheduler(cache=cache)
        b = ScanScheduler(cache=cache)
        a.scan_many(IDS, ["ushers"])
        b.scan_many(IDS, ["she"])
        assert b.reports[0].cache_hit
        # The binding is per-scheduler (per device), not shared.
        assert not b.reports[0].bind_skipped

    def test_eviction_drops_the_matcher_too(self):
        sched = ScanScheduler(cache_capacity=1)
        sched.scan_many(IDS, ["ushers"])
        sched.scan_many(AV, ["virus"])  # evicts IDS
        assert len(sched._matchers) == 1
        results = sched.scan_many(IDS, ["ushers"])  # rebuilt cleanly
        assert len(results[0]) == 3
        assert not sched.reports[-1].cache_hit


class TestListDictionary:
    def test_scan_many_validates_a_list_once(self, monkeypatch):
        built = []
        real_init = PatternSet.__init__

        def counting_init(self, patterns):
            built.append(1)
            real_init(self, patterns)

        monkeypatch.setattr(PatternSet, "__init__", counting_init)
        texts = ["ushers %d" % i for i in range(16)]
        results = ScanScheduler().scan_many(IDS, texts)
        assert len(built) == 1
        assert results == [Matcher(IDS).scan(t) for t in texts]


class TestPipelineModel:
    def test_timing_invariants(self):
        sched = ScanScheduler(max_batch=8)
        sched.scan_many(IDS, ["ushers" * 100] * 6)
        t = sched.reports[0].timing
        assert t is not None
        assert t.makespan_seconds <= t.serial_seconds
        assert t.overlap_saved_seconds >= 0.0
        assert t.copy_exposed_seconds >= 0.0
        assert len(t.copy_seconds) == len(t.kernel_seconds) == 6
        assert t.bind_seconds > 0.0  # first batch pays the STT upload

    def test_overlap_grows_with_batch_size(self):
        """More requests behind the first = more copy time hidden."""

        def saved(n):
            sched = ScanScheduler(max_batch=n)
            sched.scan_many(IDS, ["ushers" * 200] * n)
            return sched.reports[0].timing.overlap_saved_seconds

        assert saved(1) == 0.0  # nothing to overlap with
        assert saved(4) > 0.0
        assert saved(8) > saved(2)

    def test_streams_recorded_on_device(self):
        sched = ScanScheduler()
        sched.scan_many(IDS, ["ushers", "hers"])
        digest = pattern_set_digest(IDS)
        device = sched._matchers[digest].device
        names = [s.name for s in device.streams]
        assert names == ["h2d", "compute"]
        copy_ops = [op for op in device.streams[0].ops if op.kind == "copy_h2d"]
        kernel_ops = [op for op in device.streams[1].ops if op.kind == "kernel"]
        assert len(copy_ops) == len(kernel_ops) == 2
        # Compute never starts a chunk before its copy lands.
        for c, k in zip(copy_ops, kernel_ops):
            assert k.t_start >= c.t_end

    def test_long_lived_device_keeps_one_stream_pair(self):
        """Each batch's h2d/compute streams replace the last batch's, so
        a serving device does not grow with the batches it served."""
        rules = PatternSet.from_strings(IDS)
        texts = ["ushers", "she sells", "hers"]
        sched = ScanScheduler()
        for _ in range(50):
            sched.scan_many(rules, texts)
        device = sched._matchers[pattern_set_digest(rules)].device
        assert len(device.streams) == 2
        fresh = ScanScheduler()
        fresh.scan_many(rules, texts)
        fresh_device = fresh._matchers[pattern_set_digest(rules)].device
        assert [s.name for s in device.streams] == ["h2d", "compute"]
        assert [s.ops for s in device.streams] == [
            s.ops for s in fresh_device.streams
        ]

    def test_cpu_backend_has_no_pipeline(self):
        sched = ScanScheduler(backend="serial")
        sched.scan_many(IDS, ["ushers"])
        assert sched.reports[0].timing is None


class TestProfilerRetention:
    """A scheduler's own profiler keeps only what the pipeline prices."""

    RULES = PatternSet.from_strings(IDS)

    def serve(self, sched, batches=50):
        for i in range(batches):
            sched.scan_many(self.RULES, [f"ushers {i}", "she sells"])

    def test_private_profiler_keeps_one_report(self):
        sched = ScanScheduler()
        self.serve(sched)
        assert len(sched.reports) == 50
        assert len(sched.profiler.reports) <= 1

    def test_callers_profiler_receives_every_batch(self):
        profiler = KernelProfiler()
        sched = ScanScheduler(profiler=profiler)
        self.serve(sched)
        assert sched.profiler is profiler
        assert len(profiler.reports) == 50

    def test_seeded_batch_timings_are_pinned(self):
        """(bind, makespan, serial, kernel slices) of three seeded
        batches, as computed before the profiler was bounded."""
        rng = np.random.default_rng(2013)
        sched = ScanScheduler(max_batch=4)
        for _ in range(3):
            texts = [
                bytes(rng.choice(list(b"ushers his "), int(n)).tolist())
                for n in rng.integers(50, 400, 4)
            ]
            sched.scan_many(self.RULES, texts)
        got = [
            (
                r.timing.bind_seconds,
                r.timing.makespan_seconds,
                r.timing.serial_seconds,
                tuple(r.timing.kernel_seconds),
            )
            for r in sched.reports
        ]
        assert got == [
            (
                1.869090909090909e-06,
                8.058442227149544e-06,
                8.159351318058635e-06,
                (
                    1.722979216095663e-06,
                    1.1486528107304419e-06,
                    2.1537240201195783e-06,
                    1.1247225438402244e-06,
                ),
            ),
            (
                0.0,
                6.192130437601974e-06,
                6.3234031648747025e-06,
                (
                    1.4955849892090947e-06,
                    8.573827739862482e-07,
                    1.6631936517928726e-06,
                    2.133787204431941e-06,
                ),
            ),
            (
                0.0,
                6.1748314325956304e-06,
                6.27883143259563e-06,
                (
                    1.2022344023064463e-06,
                    1.5136044633354543e-06,
                    9.254610147251063e-07,
                    2.5082588249558956e-06,
                ),
            ),
        ]


class TestFailureIsolation:
    def test_persistent_fault_falls_back_per_request(self):
        inj = FaultInjector(
            FaultPlan.single(FaultKind.LAUNCH_FAILURE, persistent=True)
        )
        sched = ScanScheduler(injector=inj)
        texts = ["ushers", "she he", "zzz"]
        results = sched.scan_many(IDS, texts)
        oracle = Matcher(IDS)
        assert results == [oracle.scan(t) for t in texts]
        report = sched.reports[0]
        assert report.fallback_request_ids == [0, 1, 2]
        assert report.timing is None  # the pipelined pass never ran

    def test_fallback_does_not_poison_other_batches(self):
        """A second fault fires on the 2nd bind; only that batch falls
        back — the next drain recovers on the GPU path."""
        inj = FaultInjector(
            FaultPlan.single(FaultKind.LAUNCH_FAILURE, trigger=1)
        )
        sched = ScanScheduler(injector=inj)
        r1 = sched.scan_many(IDS, ["ushers"])  # fault fires here
        r2 = sched.scan_many(IDS, ["hers"])  # one-shot fault is spent
        oracle = Matcher(IDS)
        assert r1 == [oracle.scan("ushers")]
        assert r2 == [oracle.scan("hers")]
        assert sched.reports[0].fallback_request_ids == [0]
        assert sched.reports[1].fallback_request_ids == []

    def test_metrics_count_fallbacks(self):
        metrics = Metrics()
        inj = FaultInjector(
            FaultPlan.single(FaultKind.LAUNCH_FAILURE, persistent=True)
        )
        sched = ScanScheduler(injector=inj, metrics=metrics)
        sched.scan_many(IDS, ["ushers", "she"])
        doc = metrics.to_json()
        assert "serve_fallback_requests_total" in doc


class TestObservability:
    def test_span_tree_shape(self):
        tracer = Tracer()
        sched = ScanScheduler(tracer=tracer)
        sched.submit(IDS, "ushers")
        sched.submit(AV, "worm")
        sched.drain()
        drains = tracer.find("serve_drain")
        assert len(drains) == 1
        batches = drains[0].find("serve_batch")
        assert len(batches) == 2
        assert batches[0].attrs["n_requests"] == 1
        # The matcher's scan_many runs inside the batch span.
        assert len(batches[0].find("scan_many")) == 1
        # Stream ops surface as events under the batch span.
        assert len(batches[0].find("stream.kernel")) == 1

    def test_queue_and_batch_metrics(self):
        metrics = Metrics()
        sched = ScanScheduler(metrics=metrics)
        sched.submit(IDS, "ushers")
        sched.submit(IDS, "she")
        sched.drain()
        doc = metrics.to_json()
        for name in (
            "serve_requests_total",
            "serve_batches_total",
            "serve_batch_size",
            "serve_queue_depth",
        ):
            assert name in doc, name

    def test_summary_aggregates(self):
        sched = ScanScheduler()
        sched.scan_many(IDS, ["ushers", "she"])
        sched.scan_many(IDS, ["hers"])
        s = sched.summary()
        assert s["requests"] == 3
        assert s["batches"] == 2
        assert s["cache_hits"] == 1
        assert s["makespan_seconds"] <= s["serial_seconds"]
