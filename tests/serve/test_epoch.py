"""Epoch-based hot swap: protocol, refcounts, aborts, rollback, streams.

The contract under test (docs/MODEL.md §10): swaps are build-aside ->
verify -> commit, admissions pin versions via refcounted leases,
superseded epochs retire (table freed) when their last lease drains,
any typed fault before commit aborts with serving state and registry
byte-identical to before the attempt, and rollback appends a new
version carrying the predecessor's content.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DFA, PatternSet
from repro.core.delta import PatternDelta
from repro.core.serial import match_serial
from repro.core.streaming import StreamMatcher
from repro.errors import (
    DeltaError,
    IntegrityError,
    KernelTimeoutError,
    OverlapBudgetError,
    ReproError,
    SwapError,
)
from repro.obs import Metrics, Tracer
from repro.resilience import Fault, FaultInjector, FaultKind, FaultPlan
from repro.serve import EpochManager, EpochState, ScanScheduler

V1 = ["he", "she", "his", "hers"]
ADD = PatternDelta.from_strings(added=["usher"])


def manager(**kw) -> EpochManager:
    return EpochManager(**kw)


class TestSwapProtocol:
    def test_register_then_swap_commits_new_version(self):
        mgr = manager()
        mgr.register("ids", V1)
        report = mgr.swap("ids", ADD)
        assert (report.from_version, report.to_version) == (1, 2)
        assert report.mode == "delta"
        assert not report.aborted
        assert mgr.active("ids").version == 2

    def test_swap_needs_exactly_one_source(self):
        mgr = manager()
        mgr.register("ids", V1)
        with pytest.raises(SwapError, match="exactly one"):
            mgr.swap("ids")
        with pytest.raises(SwapError, match="exactly one"):
            mgr.swap("ids", ADD, patterns=V1)

    def test_serialized_delta_path(self):
        mgr = manager()
        mgr.register("ids", V1)
        report = mgr.swap("ids", ADD.to_bytes())
        assert report.mode == "delta"
        assert b"usher" in mgr.active("ids").patterns.as_bytes_list()

    def test_full_swap_registers_root_version(self):
        mgr = manager()
        mgr.register("ids", V1)
        report = mgr.swap("ids", patterns=["virus", "worm"])
        assert report.mode == "full"
        assert mgr.registry.head("ids").is_root

    def test_delta_swap_records_lineage(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        head = mgr.registry.head("ids")
        assert head.delta is not None
        assert head.parent_digest == mgr.registry.get("ids", 1).digest

    def test_swapped_automaton_matches_scratch_build(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        built = mgr.built_for(mgr.active("ids"))
        scratch = DFA.build(mgr.active("ids").patterns)
        text = b"ushers in the house say hers"
        assert match_serial(built.dfa, text) == match_serial(scratch, text)

    @pytest.mark.parametrize("source", ["delta", "patterns"])
    def test_every_swap_is_one_scratch_build(self, source):
        mgr = manager()
        mgr.register("ids", V1)
        if source == "delta":
            report = mgr.swap("ids", ADD)
        else:
            report = mgr.swap("ids", patterns=V1 + ["usher"])
        built = mgr.active("ids").built
        scratch = DFA.build(PatternSet.from_strings(V1 + ["usher"]))
        assert np.array_equal(built.dfa.stt.table, scratch.stt.table)
        assert np.array_equal(built.dfa.out_ids, scratch.out_ids)
        assert report.dirty_rows == scratch.n_states
        assert report.reused_rows == 0

    def test_undrained_old_epoch_drains_then_retires(self):
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")
        mgr.swap("ids", ADD)
        old = lease.epoch
        assert old.state is EpochState.DRAINING
        assert old.holds_table  # pinned request still needs the table
        mgr.release(lease)
        assert old.state is EpochState.RETIRED
        assert old.built is None  # STT freed at retirement
        assert mgr.epoch_overlap("ids") == 1

    def test_idle_old_epoch_retires_immediately(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        old = mgr.epochs("ids")[0]
        assert old.state is EpochState.RETIRED
        assert old.built is None

    def test_double_release_is_idempotent(self):
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")
        mgr.release(lease)
        mgr.release(lease)
        assert mgr.active("ids").refs == 0


class TestBackpressure:
    def test_overlap_budget_refuses_third_epoch(self):
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")  # keeps v1 alive through the swap
        mgr.swap("ids", ADD)
        assert mgr.epoch_overlap("ids") == 2
        with pytest.raises(OverlapBudgetError):
            mgr.swap("ids", PatternDelta.from_strings(added=["virus"]))
        mgr.release(lease)
        report = mgr.swap("ids", PatternDelta.from_strings(added=["virus"]))
        assert report.to_version == 3

    def test_backpressure_is_not_an_abort(self):
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")
        mgr.swap("ids", ADD)
        n_swaps = len(mgr.swaps)
        with pytest.raises(OverlapBudgetError):
            mgr.swap("ids", PatternDelta.from_strings(added=["virus"]))
        assert len(mgr.swaps) == n_swaps  # nothing attempted, not recorded
        mgr.release(lease)

    def test_budget_below_two_rejected(self):
        with pytest.raises(SwapError, match="overlap_budget"):
            EpochManager(overlap_budget=1)


def _single(kind: FaultKind, **kw) -> FaultInjector:
    return FaultInjector(FaultPlan([Fault(kind=kind, **kw)]))


class TestAbortAndRollback:
    @pytest.mark.parametrize(
        "kind,error",
        [
            (FaultKind.DELTA_CORRUPT, IntegrityError),
            (FaultKind.SWAP_STT_MISMATCH, IntegrityError),
            (FaultKind.REBUILD_TIMEOUT, KernelTimeoutError),
        ],
    )
    def test_fault_aborts_swap_serving_unchanged(self, kind, error):
        mgr = manager(injector=_single(kind))
        mgr.register("ids", V1)
        before_digest = mgr.active("ids").digest
        before_built = mgr.active("ids").built
        source = (
            {"patterns": V1 + ["usher"]}
            if kind is FaultKind.REBUILD_TIMEOUT
            else {"delta": ADD}
        )
        with pytest.raises(error):
            mgr.swap("ids", **source)
        # Serving state, registry, and the live table are all untouched.
        assert mgr.active("ids").version == 1
        assert mgr.active("ids").digest == before_digest
        assert mgr.active("ids").built is before_built
        assert mgr.registry.head("ids").version == 1
        assert mgr.epoch_overlap("ids") == 1
        report = mgr.swaps[-1]
        assert report.aborted
        assert report.to_version is None
        assert report.error_type == error.__name__
        assert report.rolled_back_to == 1

    def test_delta_swap_runs_under_rebuild_watchdog(self):
        mgr = manager(injector=_single(FaultKind.REBUILD_TIMEOUT))
        mgr.register("ids", V1)
        with pytest.raises(KernelTimeoutError, match="swap watchdog"):
            mgr.swap("ids", ADD)
        assert mgr.active("ids").version == 1
        assert mgr.registry.head("ids").version == 1

    def test_delta_emptying_the_set_aborts(self):
        mgr = manager()
        mgr.register("ids", V1)
        with pytest.raises(DeltaError, match="empty"):
            mgr.swap("ids", PatternDelta.from_strings(removed=V1))
        assert mgr.swaps[-1].aborted
        assert mgr.active("ids").version == 1

    def test_transient_fault_clears_on_retry(self):
        mgr = manager(
            injector=_single(FaultKind.DELTA_CORRUPT, persistent=False)
        )
        mgr.register("ids", V1)
        with pytest.raises(IntegrityError):
            mgr.swap("ids", ADD)
        report = mgr.swap("ids", ADD)  # one-shot fault already consumed
        assert report.to_version == 2

    def test_aborted_swap_leaves_scans_working(self):
        mgr = manager(injector=_single(FaultKind.SWAP_STT_MISMATCH))
        mgr.register("ids", V1)
        with pytest.raises(IntegrityError):
            mgr.swap("ids", ADD)
        built = mgr.built_for(mgr.active("ids"))
        text = b"ushers say hers"
        assert match_serial(built.dfa, text) == match_serial(
            DFA.build(PatternSet.from_strings(V1)), text
        )

    def test_rollback_appends_predecessor_content(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        report = mgr.rollback("ids")
        assert report.mode == "rollback"
        assert (report.from_version, report.to_version) == (2, 3)
        assert report.rolled_back_to == 1
        head = mgr.registry.head("ids")
        assert head.version == 3
        assert head.is_root
        assert head.digest == mgr.registry.get("ids", 1).digest
        assert mgr.active("ids").version == 3

    def test_rollback_at_v1_refused(self):
        mgr = manager()
        mgr.register("ids", V1)
        with pytest.raises(SwapError, match="roll back"):
            mgr.rollback("ids")

    def test_delta_after_rollback_derives_from_serving_rules(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        mgr.rollback("ids")
        report = mgr.swap("ids", PatternDelta.from_strings(added=["virus"]))
        assert report.to_version == 4
        got = set(mgr.active("ids").patterns.as_bytes_list())
        assert got == {p.encode() for p in V1} | {b"virus"}  # no "usher"


class TestSelfHealing:
    def test_corrupt_epoch_table_rebuilt_not_raised(self):
        metrics = Metrics()
        mgr = manager(metrics=metrics)
        mgr.register("ids", V1)
        epoch = mgr.active("ids")
        table = epoch.built.dfa.stt.table
        table.setflags(write=True)
        try:
            table[1, 5] ^= 0x4  # bit-rot a transition
        finally:
            table.setflags(write=False)
        built = mgr.built_for(epoch)
        text = b"ushers say hers"
        assert match_serial(built.dfa, text) == match_serial(
            DFA.build(PatternSet.from_strings(V1)), text
        )
        assert epoch.built is built  # healed in place


class TestSchedulerHotSwap:
    def test_requests_pin_their_admitted_version(self):
        mgr = manager()
        sched = ScanScheduler(epochs=mgr)
        mgr.register("ids", V1)
        text = "ushers in the house"
        t1 = sched.submit_named("ids", text)
        mgr.swap("ids", ADD)  # lands while t1 is still queued
        t2 = sched.submit_named("ids", text)
        sched.drain()
        v1_oracle = match_serial(
            DFA.build(PatternSet.from_strings(V1)), text.encode()
        )
        v2_oracle = match_serial(
            DFA.build(PatternSet.from_strings(V1 + ["usher"])), text.encode()
        )
        assert t1.result() == v1_oracle
        assert t2.result() == v2_oracle
        assert len(t2.result()) == len(v1_oracle) + 1  # "usher" fired

    def test_drain_retires_superseded_epoch(self):
        mgr = manager()
        sched = ScanScheduler(epochs=mgr)
        mgr.register("ids", V1)
        sched.submit_named("ids", "ushers")
        mgr.swap("ids", ADD)
        assert mgr.epoch_overlap("ids") == 2
        sched.drain()
        assert mgr.epoch_overlap("ids") == 1
        assert mgr.epochs("ids")[0].state is EpochState.RETIRED

    def test_submit_named_without_manager_raises(self):
        sched = ScanScheduler()
        with pytest.raises(ReproError, match="epochs"):
            sched.submit_named("ids", "x")

    def test_scan_many_named_round_trip(self):
        mgr = manager()
        sched = ScanScheduler(epochs=mgr)
        mgr.register("ids", V1)
        texts = ["ushers", "she sells", "nothing here"]
        results = sched.scan_many_named("ids", texts)
        dfa = DFA.build(PatternSet.from_strings(V1))
        for text, got in zip(texts, results):
            assert got == match_serial(dfa, text.encode())


class TestStreamAcrossSwap:
    """S3: StreamMatcher.feed across a mid-stream version boundary."""

    def test_stream_pins_admitted_epoch_across_swap(self):
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")
        stream = StreamMatcher(mgr.built_for(lease.epoch).dfa)

        part1, part2 = b"ush", b"ers and hers"
        got = list(stream.feed(part1))
        # The version boundary lands mid-stream, between two feeds that
        # a match straddles ("ushers" would match only on v2).
        mgr.swap("ids", ADD)
        got += stream.feed(part2)
        mgr.release(lease)

        v1_dfa = DFA.build(PatternSet.from_strings(V1))
        expected = [
            (m.end, m.pattern_id)
            for m in match_serial(v1_dfa, part1 + part2)
        ]
        assert sorted(got) == sorted(expected)
        # v2's "usher" must NOT have fired: the carry state belongs to
        # the admitted epoch, and seam chunks never mix versions.
        v2_dfa = DFA.build(PatternSet.from_strings(V1 + ["usher"]))
        v2_pairs = [
            (m.end, m.pattern_id)
            for m in match_serial(v2_dfa, part1 + part2)
        ]
        assert len(v2_pairs) == len(expected) + 1

    def test_new_stream_after_swap_sees_new_version(self):
        mgr = manager()
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        lease = mgr.admit("ids")
        stream = StreamMatcher(mgr.built_for(lease.epoch).dfa)
        got = list(stream.feed(b"ush"))
        got += stream.feed(b"ers")
        mgr.release(lease)
        v2_dfa = DFA.build(PatternSet.from_strings(V1 + ["usher"]))
        expected = [
            (m.end, m.pattern_id) for m in match_serial(v2_dfa, b"ushers")
        ]
        assert sorted(got) == sorted(expected)

    def test_retired_epoch_record_outlives_table(self):
        # A drained stream's epoch frees its STT, but the registry
        # record (the oracle's input) survives for late verification.
        mgr = manager()
        mgr.register("ids", V1)
        lease = mgr.admit("ids")
        mgr.swap("ids", ADD)
        mgr.release(lease)
        old = mgr.epochs("ids")[0]
        assert old.built is None
        assert set(old.patterns.as_bytes_list()) == {
            p.encode() for p in V1
        }


class TestObservability:
    def test_swap_emits_span_and_metrics(self):
        tracer = Tracer()
        metrics = Metrics()
        mgr = manager(tracer=tracer, metrics=metrics)
        mgr.register("ids", V1)
        mgr.swap("ids", ADD)
        rendered = tracer.render()
        assert "epoch_swap" in rendered
        doc = metrics.as_dict()
        assert any("epoch_swaps_total" in k for k in doc)
        assert any("epoch_rebuild_ms" in k for k in doc)

    def test_swap_determinism(self):
        def run():
            mgr = manager()
            sched = ScanScheduler(epochs=mgr)
            mgr.register("ids", V1)
            out = [sched.submit_named("ids", "ushers hers")]
            mgr.swap("ids", ADD)
            out.append(sched.submit_named("ids", "ushers hers"))
            sched.drain()
            return [list(t.result()) for t in out]

        assert run() == run()
