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
from repro.core.serial import VECTOR_THRESHOLD, match_serial_python
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


class TestOwnership:
    """Each occurrence is reported by exactly one lane, its owner.

    Canonicalization drops exact duplicates, so an overlap-row output
    that escaped the ownership filter would vanish from the match set
    unseen; these tests count the pairs that reach it instead.
    """

    @pytest.fixture()
    def reported(self, monkeypatch):
        import repro.core.tiled as tiled_mod

        sizes = []
        real = tiled_mod.MatchResult

        class Counting(real):
            def __init__(self, ends, pattern_ids):
                sizes.append(len(ends))
                super().__init__(ends, pattern_ids)

        monkeypatch.setattr(tiled_mod, "MatchResult", Counting)
        return sizes

    @pytest.mark.parametrize("chunk_len", [1, 3, 4, 64])
    @pytest.mark.parametrize("tile_len", [2, 7, 256])
    def test_no_occurrence_reported_twice(
        self, paper_case, reported, chunk_len, tile_len
    ):
        dfa, data = paper_case
        _, _, _, want, _ = monolithic(dfa, data, chunk_len)
        got = scan_tiled(dfa, data, chunk_len=chunk_len, tile_len=tile_len)
        assert got.matches == want
        assert reported == [len(want)]

    def test_carried_state_reports_once(self, reported):
        """Lane 0 entered mid-pattern owns the match that began before
        the input; no other lane repeats it."""
        dfa = DFA.build(PatternSet([b"hers", b"he", b"ers"]))
        state = dfa.stt.table[dfa.stt.table[0, ord("h")], ord("e")]
        got = scan_tiled(
            dfa, encode(b"rs hers hers"), chunk_len=3, tile_len=2,
            init_state=int(state),
        )
        assert got.matches.as_pairs() == [(1, 0), (1, 2), (4, 1), (6, 0),
                                          (6, 2), (9, 1), (11, 0), (11, 2)]
        assert reported == [len(got.matches)]


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


@st.composite
def split_stream(draw):
    """A dictionary, a text, and feed lengths on both sides of
    ``VECTOR_THRESHOLD`` that cut the text anywhere."""
    alpha = draw(ALPHA)
    patterns = draw(
        st.lists(
            st.text(alphabet=alpha, min_size=1, max_size=6),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    unit = draw(st.text(alphabet=alpha, min_size=1, max_size=400))
    sizes = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=64),
                st.integers(
                    min_value=VECTOR_THRESHOLD - 2,
                    max_value=3 * VECTOR_THRESHOLD,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    total = sum(sizes)
    text = (unit * (total // len(unit) + 1))[:total]
    return PatternSet.from_strings(patterns), text, sizes


@settings(max_examples=50, deadline=None)
@given(split_stream())
def test_streaming_split_feeds_equal_whole_scan(case):
    """Feeds split anywhere — including mid-pattern — match a one-shot
    scan and carry the reference state.  Feeds of ``VECTOR_THRESHOLD``
    bytes or more run the tiled engine over many sized lanes with the
    (mostly non-root) carried state seeded into lane 0."""
    patterns, text, sizes = case
    dfa = DFA.build(patterns)
    data = encode(text)
    table = dfa.stt.next_states
    m = StreamMatcher(dfa)
    pairs = []
    state = 0
    lo = 0
    for size in sizes:
        piece = data[lo : lo + size]
        pairs.extend(m.feed(piece))
        for byte in piece.tolist():
            state = int(table[state, byte])
        assert m.state == state
        lo += size
    # Feeds return canonical order and come in stream order, so the
    # concatenation is already the whole scan's canonical order.
    assert pairs == match_serial_python(dfa, data)
    assert m.position == data.size
