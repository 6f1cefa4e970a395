"""Differential tests: tiled streaming engine ≡ monolithic lockstep.

The tiled engine must be a pure implementation change — every
observable (matches, raw hit count, state traces, visit histograms) is
byte-identical to the old trace-the-whole-window path for *any* tile
size, including tile_len=1 (a seam between every step) and tile sizes
that straddle chunk-ownership boundaries.  The monolithic reference
(build_windows + run_dfa_lockstep + extract_matches) is kept alive
precisely to anchor these tests; it gathers through the plain dense
``dfa.stt.table`` lookup and shares no gather code with the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet, encode, plan_chunks
from repro.core.chunking import build_windows, required_overlap
from repro.core.lockstep import extract_matches, run_dfa_lockstep
from repro.core.streaming import StreamMatcher
from repro.core.tiled import (
    GatherKernel,
    StateVisitHistogram,
    iter_dfa_tiles,
    scan_tiled,
)


def monolithic(dfa, data, chunk_len, overlap=None):
    """The pre-tiling reference pipeline."""
    if overlap is None:
        overlap = required_overlap(dfa.patterns.max_length)
    plan = plan_chunks(data.size, chunk_len, overlap)
    windows = build_windows(data, plan)
    trace = run_dfa_lockstep(dfa, windows, plan)
    matches, raw_hits = extract_matches(dfa, trace)
    return plan, windows, trace, matches, raw_hits


#: The boolean ``compact`` parametrizations pick the gather table by name.
BACKEND_OF = {False: "dense", True: "compact"}


@pytest.fixture(scope="module")
def paper_case():
    dfa = DFA.build(PatternSet([b"he", b"she", b"his", b"hers"]))
    rng = np.random.default_rng(42)
    data = rng.choice(
        np.frombuffer(b"hers i x", dtype=np.uint8), size=3000
    ).astype(np.uint8)
    return dfa, data


class TestTiledEqualsMonolithic:
    @pytest.mark.parametrize("chunk_len", [1, 3, 64, 1000])
    @pytest.mark.parametrize("tile_len", [1, 2, 7, 256])
    @pytest.mark.parametrize("compact", [False, True])
    def test_matches_identical(self, paper_case, chunk_len, tile_len, compact):
        dfa, data = paper_case
        _, _, trace, want, want_raw = monolithic(dfa, data, chunk_len)
        got = scan_tiled(
            dfa,
            data,
            chunk_len=chunk_len,
            tile_len=tile_len,
            stt_backend=BACKEND_OF[compact],
        )
        assert got.matches == want
        assert got.raw_hits == want_raw
        # bytes_scanned counts valid lockstep steps, overlap included.
        assert got.bytes_scanned == trace.total_fetches()

    def test_visit_histogram_sink_matches_trace(self, paper_case):
        dfa, data = paper_case
        _, _, trace, _, _ = monolithic(dfa, data, 64)
        hist = StateVisitHistogram(dfa.n_states)
        scan_tiled(dfa, data, chunk_len=64, tile_len=5, sinks=[hist])
        assert np.array_equal(hist.hist, trace.visit_histogram(dfa.n_states))

    def test_tile_fields_concatenate_to_monolithic(self, paper_case):
        dfa, data = paper_case
        plan, windows, trace, _, _ = monolithic(dfa, data, 64)
        fetched_rows, window_rows = [], []
        for tile in iter_dfa_tiles(
            dfa, data, plan, tile_len=7, want_windows=True, want_fetched=True
        ):
            fetched_rows.append(tile.fetched.copy())
            window_rows.append(tile.windows.copy())
        assert np.array_equal(np.vstack(fetched_rows), trace.states_fetched())
        assert np.array_equal(np.vstack(window_rows), windows)

    def test_empty_input(self, paper_case):
        dfa, _ = paper_case
        got = scan_tiled(dfa, np.empty(0, dtype=np.uint8), chunk_len=64)
        assert len(got.matches) == 0
        assert got.raw_hits == 0
        assert got.bytes_scanned == 0

    def test_gather_kernel_rejects_bad_shapes(self, paper_case):
        dfa, _ = paper_case
        g = GatherKernel(dfa, None)
        g.alloc(4)
        state = np.zeros(4, dtype=np.int64)
        out = np.empty(4, dtype=g.row_dtype)
        g.step_fused(state, np.zeros(4, dtype=np.uint8), out)
        assert np.array_equal(out, np.zeros(4, dtype=g.row_dtype))


class TestSeams:
    """Deterministic seam cases: matches crossing chunk/tile borders."""

    def test_match_straddles_chunk_seam(self):
        dfa = DFA.build(PatternSet([b"abcd"]))
        data = encode(b"xxabcdxx")
        for chunk_len in (2, 3, 4):
            got = scan_tiled(dfa, data, chunk_len=chunk_len, tile_len=2)
            assert got.matches.ends.tolist() == [5]

    def test_match_ends_exactly_on_tile_seam(self):
        dfa = DFA.build(PatternSet([b"ab"]))
        data = encode(b"ab" * 10)
        # tile_len=2 puts every second match-end on a tile boundary.
        got = scan_tiled(dfa, data, chunk_len=20, tile_len=2)
        assert got.matches.ends.tolist() == list(range(1, 20, 2))

    def test_overlap_longer_than_chunk(self):
        dfa = DFA.build(PatternSet([b"aaaaaaaa"]))  # overlap 7 > chunk 4
        data = encode(b"a" * 30)
        _, _, _, want, _ = monolithic(dfa, data, 4)
        got = scan_tiled(dfa, data, chunk_len=4, tile_len=3)
        assert got.matches == want


ALPHA = st.sampled_from(["ab", "abc", "he rs"])


@st.composite
def dict_text_geometry(draw):
    alpha = draw(ALPHA)
    patterns = draw(
        st.lists(
            st.text(alphabet=alpha, min_size=1, max_size=6),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    text = draw(st.text(alphabet=alpha, min_size=0, max_size=400))
    chunk_len = draw(st.integers(min_value=1, max_value=48))
    tile_len = draw(st.integers(min_value=1, max_value=8))
    return PatternSet.from_strings(patterns), text, chunk_len, tile_len


@settings(max_examples=80, deadline=None)
@given(dict_text_geometry(), st.sampled_from(["dense", "compact"]))
def test_tiled_equals_monolithic_property(case, stt_backend):
    patterns, text, chunk_len, tile_len = case
    dfa = DFA.build(patterns)
    data = encode(text)
    _, _, _, want, want_raw = monolithic(dfa, data, chunk_len)
    got = scan_tiled(
        dfa, data, chunk_len=chunk_len, tile_len=tile_len, stt_backend=stt_backend
    )
    assert got.matches == want
    assert got.raw_hits == want_raw


@settings(max_examples=50, deadline=None)
@given(
    case=dict_text_geometry(),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
)
def test_streaming_split_feeds_equal_whole_scan(case, cuts):
    """Feeds split anywhere — including mid-pattern — match a one-shot
    scan, on both the small and the chunk-parallel feed paths."""
    import repro.core.streaming as streaming

    patterns, text, _, _ = case
    dfa = DFA.build(patterns)
    data = encode(text)
    n = int(data.size)
    bounds = sorted({min(c, n) for c in cuts} | {0, n})
    # Force the parallel path so tiny feeds exercise it too.
    saved = streaming.VECTOR_THRESHOLD, streaming.PARALLEL_CHUNK
    streaming.VECTOR_THRESHOLD, streaming.PARALLEL_CHUNK = 4, 16
    try:
        m = StreamMatcher(dfa)
        pairs = []
        for lo, hi in zip(bounds, bounds[1:]):
            pairs.extend(m.feed(data[lo:hi]))
    finally:
        streaming.VECTOR_THRESHOLD, streaming.PARALLEL_CHUNK = saved
    from repro.core import match_serial

    want = match_serial(dfa, text) if n else []
    want_pairs = (
        sorted(zip(want.ends.tolist(), want.pattern_ids.tolist()))
        if n
        else []
    )
    assert sorted(pairs) == want_pairs
    assert m.position == n
