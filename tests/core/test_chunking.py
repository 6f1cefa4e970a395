"""Unit tests for chunk planning, window building and match ownership.

The load-bearing claim (paper Section IV-B-3): splitting the text into
per-thread chunks with +X overlap and keeping only matches that start
inside the owning chunk reconstructs the serial match set exactly.
"""

import numpy as np
import pytest

from repro.core import (
    DFA,
    PatternSet,
    encode,
    naive_find_all,
    plan_chunks,
    required_overlap,
)
from repro.core.chunking import build_windows
from repro.core.tiled import scan_tiled
from repro.errors import ChunkingError


class TestRequiredOverlap:
    def test_tight_value(self):
        assert required_overlap(4) == 3
        assert required_overlap(1) == 0

    def test_invalid(self):
        with pytest.raises(ChunkingError):
            required_overlap(0)


class TestPlanChunks:
    def test_exact_division(self):
        plan = plan_chunks(100, 25, 3)
        assert plan.n_chunks == 4
        assert plan.starts.tolist() == [0, 25, 50, 75]
        assert plan.owned_ends.tolist() == [25, 50, 75, 100]
        assert plan.window_len == 28

    def test_ragged_tail(self):
        plan = plan_chunks(10, 4, 2)
        assert plan.n_chunks == 3
        assert plan.owned_ends.tolist() == [4, 8, 10]

    def test_empty_input_yields_one_chunk(self):
        plan = plan_chunks(0, 8, 1)
        assert plan.n_chunks == 1
        assert plan.owned_ends.tolist() == [0]

    def test_chunk_larger_than_input(self):
        plan = plan_chunks(3, 100, 2)
        assert plan.n_chunks == 1
        assert plan.owned_ends.tolist() == [3]

    @pytest.mark.parametrize(
        "n,chunk,overlap", [(-1, 4, 0), (10, 0, 0), (10, 4, -1)]
    )
    def test_invalid_geometry(self, n, chunk, overlap):
        with pytest.raises(ChunkingError):
            plan_chunks(n, chunk, overlap)

    def test_scan_bytes_total_counts_overlap(self):
        plan = plan_chunks(100, 25, 3)
        # Chunks 0..2 scan 28 bytes, chunk 3 is clipped to 25.
        assert plan.scan_bytes_total() == 28 * 3 + 25


class TestBuildWindows:
    def test_step_major_layout(self):
        data = encode(b"abcdefgh")
        plan = plan_chunks(8, 4, 2)
        w = build_windows(data, plan)
        assert w.shape == (6, 2)  # window_len x n_chunks
        assert bytes(w[:, 0]) == b"abcdef"
        assert bytes(w[:, 1]) == b"efgh\x00\x00"  # zero padding past end

    def test_rejects_wrong_dtype(self):
        plan = plan_chunks(4, 2, 0)
        with pytest.raises(ChunkingError):
            build_windows(np.zeros(4, dtype=np.int32), plan)

    def test_rejects_length_mismatch(self):
        plan = plan_chunks(4, 2, 0)
        with pytest.raises(ChunkingError):
            build_windows(encode(b"abc"), plan)


class TestChunkedMatchEqualsSerial:
    """The correctness theorem of the overlap scheme."""

    @pytest.mark.parametrize("chunk_len", [1, 2, 3, 5, 8, 64])
    def test_small_chunks_paper_patterns(self, paper_dfa, paper_patterns, chunk_len):
        text = b"ushers she hishers xxheyy hers his usher"
        expected = set(naive_find_all(paper_patterns, text))
        got = scan_tiled(paper_dfa, encode(text), chunk_len=chunk_len).matches.as_set()
        assert got == expected

    def test_match_straddling_every_boundary(self):
        # Pattern of length 5, chunk 3: every occurrence crosses chunks.
        ps = PatternSet.from_strings(["abcde"])
        dfa = DFA.build(ps)
        text = encode(b"abcdeabcdeabcde")
        got = scan_tiled(dfa, text, chunk_len=3).matches.as_set()
        assert got == {(4, 0), (9, 0), (14, 0)}

    def test_looser_overlap_still_exact(self, paper_dfa, paper_patterns):
        # The paper uses X = max_len (one more than needed).
        text = encode(b"ushers ushers")
        tight = scan_tiled(paper_dfa, text, chunk_len=4, overlap=3).matches.as_set()
        loose = scan_tiled(paper_dfa, text, chunk_len=4, overlap=4).matches.as_set()
        huge = scan_tiled(paper_dfa, text, chunk_len=4, overlap=13).matches.as_set()
        assert tight == loose == huge

    def test_nul_padding_cannot_create_matches(self):
        # Dictionary contains NUL bytes; the zero padding after the
        # last chunk must not produce phantom matches.
        ps = PatternSet.from_bytes([bytes([0, 0])])
        dfa = DFA.build(ps)
        text = encode(bytes([1, 0]))  # ends with a single NUL
        got = scan_tiled(dfa, text, chunk_len=2).matches.as_set()
        assert got == set()

    def test_nul_patterns_inside_text_found(self):
        ps = PatternSet.from_bytes([bytes([0, 0])])
        dfa = DFA.build(ps)
        text = encode(bytes([1, 0, 0, 1]))
        got = scan_tiled(dfa, text, chunk_len=2).matches.as_set()
        assert got == {(2, 0)}

    def test_empty_text(self, paper_dfa):
        got = scan_tiled(paper_dfa, encode(b""), chunk_len=4).matches
        assert len(got) == 0

    def test_randomized_equivalence(self, paper_dfa, paper_patterns, rng):
        from tests.conftest import random_text

        text = random_text(rng, 2000, alphabet=b"hers i")
        expected = set(naive_find_all(paper_patterns, text))
        for chunk in (1, 7, 32, 501, 4096):
            got = scan_tiled(paper_dfa, encode(text), chunk_len=chunk).matches.as_set()
            assert got == expected, f"chunk={chunk}"
