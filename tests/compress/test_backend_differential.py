"""Differential harness: every STT backend is byte-identical to dense.

The compressed backends (``compact``/``banded``/``bitmap``,
:mod:`repro.compress.backend`) are *storage* layouts, never model
changes: for any dictionary, any input, any tile size, any chunk seam,
any feed split, any hot-swap epoch and any injected fault, a kernel
gathering through a compressed table must produce byte-identical match
spans, byte-identical modeled event counters, and byte-identical
per-tile state trajectories to the dense reference.  Backend costs are
allowed to appear in exactly one place — the priced timing — and even
there ``compact`` must equal ``dense`` bit-for-bit (same texture
footprint, same arithmetic by the invariance contract).

Hypothesis drives the random sweeps; the seam/fault cases are
deterministic.  Run with ``--hypothesis-profile=ci`` in CI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet
from repro.core.serial import match_serial
from repro.core.streaming import scan_stream
from repro.core.tiled import scan_tiled
from repro.errors import IntegrityError
from repro.gpu import Device
from repro.kernels import (
    run_global_kernel,
    run_pfac_kernel,
    run_shared_kernel,
)
from repro.matcher import Matcher
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan
from repro.serve import EpochManager, ScanScheduler

BACKENDS = ("dense", "compact", "banded", "bitmap")
COMPRESSED = ("banded", "bitmap")
TILE_LENS = (7, 64, 256)

ALPHABET = b"abcd"

patterns_strategy = st.lists(
    st.binary(min_size=1, max_size=6).map(
        lambda b: bytes(ALPHABET[c % len(ALPHABET)] for c in b)
    ),
    min_size=1,
    max_size=8,
    unique=True,
)

text_strategy = st.binary(min_size=1, max_size=220).map(
    lambda b: bytes(ALPHABET[c % len(ALPHABET)] for c in b)
)


def _counters_equal(a, b, label=""):
    da, db = vars(a), vars(b)
    diff = {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    assert not diff, f"counters differ {label}: {diff}"


class _TrajectorySink:
    """Copies every tile's state trajectory (views are reused)."""

    needs_windows = False
    needs_fetched = False

    def __init__(self):
        self.states = []
        self.valid = []

    def on_tile(self, tile):
        self.states.append(tile.states_after.copy())
        self.valid.append(tile.valid.copy())

    def trajectory(self):
        return (
            np.concatenate(self.states, axis=0),
            np.concatenate(self.valid, axis=0),
        )


class TestKernelDifferential:
    """Matches + counters identical across kernels x backends."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(patterns=patterns_strategy, text=text_strategy)
    def test_all_kernels_all_backends(self, patterns, text):
        dfa = DFA.build(PatternSet(patterns))
        oracle = match_serial(dfa, text)
        runs = {
            "shared": lambda be: run_shared_kernel(
                dfa, text, Device(), stt_backend=be
            ),
            "global": lambda be: run_global_kernel(
                dfa, text, Device(), chunk_len=64, stt_backend=be
            ),
            "pfac": lambda be: run_pfac_kernel(
                dfa, text, Device(), stt_backend=be
            ),
        }
        for kname, run in runs.items():
            base = run("dense")
            assert base.matches == oracle, kname
            for be in BACKENDS[1:]:
                r = run(be)
                assert r.matches == base.matches, (kname, be)
                _counters_equal(r.counters, base.counters, f"{kname}/{be}")

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(patterns=patterns_strategy, text=text_strategy)
    def test_compact_timing_identical_to_dense(self, patterns, text):
        """dense and compact share the texture footprint, so their
        priced seconds are bit-equal; banded/bitmap may differ (their
        gather arithmetic and footprint relief are priced), but only
        in timing — never in counters (checked above)."""
        dfa = DFA.build(PatternSet(patterns))
        for run in (
            lambda be: run_shared_kernel(dfa, text, Device(), stt_backend=be),
            lambda be: run_global_kernel(
                dfa, text, Device(), chunk_len=64, stt_backend=be
            ),
            lambda be: run_pfac_kernel(dfa, text, Device(), stt_backend=be),
        ):
            assert run("dense").timing.seconds == run("compact").timing.seconds


class TestTileAndSeamDifferential:
    """Tile sizes and chunk seams never leak into any backend."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        patterns=patterns_strategy,
        text=text_strategy,
        tile_len=st.sampled_from(TILE_LENS),
        chunk_len=st.integers(min_value=16, max_value=96),
    )
    def test_tiled_scan_matches(self, patterns, text, tile_len, chunk_len):
        dfa = DFA.build(PatternSet(patterns))
        data = np.frombuffer(text, dtype=np.uint8)
        base = scan_tiled(
            dfa, data, stt_backend="dense",
            tile_len=tile_len, chunk_len=chunk_len,
        )
        assert base.matches == match_serial(dfa, text)
        for be in BACKENDS[1:]:
            r = scan_tiled(
                dfa, data, stt_backend=be,
                tile_len=tile_len, chunk_len=chunk_len,
            )
            assert r.matches == base.matches, be
            assert r.n_tiles == base.n_tiles, be

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        patterns=patterns_strategy,
        text=text_strategy,
        tile_len=st.sampled_from(TILE_LENS),
    )
    def test_per_tile_state_trajectories(self, patterns, text, tile_len):
        """The *internal* state sequence — not just the matches — is
        backend-invariant, tile by tile, lane by lane."""
        dfa = DFA.build(PatternSet(patterns))
        data = np.frombuffer(text, dtype=np.uint8)
        sinks = {}
        for be in BACKENDS:
            sink = _TrajectorySink()
            scan_tiled(
                dfa, data, stt_backend=be,
                tile_len=tile_len, chunk_len=48, sinks=[sink],
            )
            sinks[be] = sink.trajectory()
        ref_states, ref_valid = sinks["dense"]
        for be in BACKENDS[1:]:
            states, valid = sinks[be]
            np.testing.assert_array_equal(valid, ref_valid, err_msg=be)
            np.testing.assert_array_equal(
                states[ref_valid], ref_states[ref_valid], err_msg=be
            )

    def test_seam_straddling_pattern(self, paper_dfa):
        """A pattern laid exactly across every chunk seam is found by
        every backend (the +X overlap contract)."""
        text = (b"x" * 61 + b"hers") * 8
        base = run_global_kernel(paper_dfa, text, Device(), chunk_len=65)
        assert len(base.matches) == 8 * 2  # "he" + "hers" per plant
        for be in BACKENDS[1:]:
            r = run_global_kernel(
                paper_dfa, text, Device(), chunk_len=65, stt_backend=be
            )
            assert r.matches == base.matches, be


class TestStreamingDifferential:
    """Split feeds: the streaming oracle equals every backend's
    full-text kernel scan, whatever the split points."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        patterns=patterns_strategy,
        text=text_strategy,
        cuts=st.lists(
            st.integers(min_value=0, max_value=219), max_size=5
        ),
    )
    def test_split_feeds(self, patterns, text, cuts):
        dfa = DFA.build(PatternSet(patterns))
        bounds = sorted({c for c in cuts if c < len(text)})
        feeds, prev = [], 0
        for c in bounds + [len(text)]:
            feeds.append(text[prev:c])
            prev = c
        streamed = scan_stream(dfa, feeds)
        for be in BACKENDS:
            m = Matcher(patterns, backend="gpu", stt_backend=be)
            assert m.scan(text) == streamed, be


class TestHotSwapDifferential:
    """Epoch hot-swaps behave identically under every backend."""

    V1 = ["he", "she", "his", "hers"]
    V2 = ["she", "his", "hers", "usher"]
    TEXTS = [b"ushers and heroes", b"she sells seashells", b"hishersby"]

    def _oracle(self, patterns):
        dfa = DFA.build(PatternSet.from_strings(patterns))
        return [match_serial(dfa, t) for t in self.TEXTS]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scan_across_swap(self, backend):
        before, after = self._oracle(self.V1), self._oracle(self.V2)
        mgr = EpochManager()
        sched = ScanScheduler(backend="gpu", epochs=mgr)

        def scan_active():
            dfa = mgr.active("ids").built.dfa
            m = Matcher.from_dfa(dfa, backend="gpu", stt_backend=backend)
            return [m.scan(t) for t in self.TEXTS]

        mgr.register("ids", self.V1)
        assert sched.scan_many_named("ids", self.TEXTS) == before
        assert scan_active() == before
        mgr.swap("ids", patterns=self.V2)
        assert sched.scan_many_named("ids", self.TEXTS) == after
        assert scan_active() == after
        # And the old-epoch results were not retroactively corrupted:
        assert sched.scan_many_named("ids", self.TEXTS) == after


class TestFaultDifferential:
    """Injected faults hit every backend identically."""

    TEXT = b"she sells sea shells by the seashore; ushers saw hers " * 4

    def _run(self, dfa, backend, plan):
        device = Device(injector=FaultInjector(plan))
        return run_shared_kernel(
            dfa, self.TEXT, device, stt_backend=backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.INPUT_GARBLE,
            FaultKind.INPUT_TRUNCATE,
            FaultKind.STT_BITFLIP,
        ],
    )
    def test_fault_detection_is_backend_invariant(
        self, paper_dfa, backend, kind
    ):
        """Corruption faults (damaged staged input, bit-flipped bound
        table) are caught by the device's CRC checks under every
        backend — a compressed layout never opens a hole where damage
        scans silently."""
        plan = FaultPlan.single(kind, seed=17)
        with pytest.raises(IntegrityError):
            self._run(paper_dfa, backend, plan)

    def test_transient_fault_then_identical_retry(self, paper_dfa):
        """A one-shot fault consumes itself: the retry on the *same*
        injector completes, and its result is byte-identical across
        backends (and to the clean run)."""
        clean = run_shared_kernel(paper_dfa, self.TEXT, Device())
        for be in BACKENDS:
            injector = FaultInjector(
                FaultPlan.single(FaultKind.INPUT_GARBLE, seed=17)
            )
            device = Device(injector=injector)
            with pytest.raises(IntegrityError):
                run_shared_kernel(
                    paper_dfa, self.TEXT, device, stt_backend=be
                )
            r = run_shared_kernel(
                paper_dfa, self.TEXT, device, stt_backend=be
            )
            assert r.matches == clean.matches, be
            _counters_equal(r.counters, clean.counters, be)
