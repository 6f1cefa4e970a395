"""Differential tests: scan_multicore is byte-identical to scan_serial.

The multicore matcher splits the input into one slab per worker with
the ``+X`` overlap rule and keeps only matches *starting* inside the
owning slab — the same ownership rule as the GPU kernels.  Everything
here pins the union of owned matches to the serial match set exactly,
with explicit coverage of the failure modes that rule is exposed to:
matches straddling slab seams, a short final slab, and more workers
than bytes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DFA, PatternSet
from repro.core.chunking import required_overlap
from repro.core.multicore import (
    DEFAULT_MC_CHUNK,
    MultiCoreMatcher,
    MulticoreMeasurement,
    measure_multicore,
    scan_multicore,
)
from repro.core.serial import match_serial_python, scan_serial
from repro.errors import ChunkingError

from tests.conftest import random_text


def pairs_mc(dfa, data, **kw):
    return scan_multicore(dfa, data, **kw).matches.as_pairs()


def pairs_serial(dfa, data):
    return scan_serial(dfa, data).as_pairs()


class TestDifferential:
    @given(
        n=st.integers(min_value=0, max_value=5000),
        workers=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None)
    def test_random_text_matches_serial(self, english_dfa, n, workers, seed):
        rng = np.random.default_rng(seed)
        text = random_text(rng, n, alphabet=b"thesandwich ")
        assert pairs_mc(english_dfa, text, workers=workers) == pairs_serial(
            english_dfa, text
        )

    @given(
        pattern_words=st.lists(
            st.text(alphabet="abc", min_size=1, max_size=12),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        text=st.text(alphabet="abc", max_size=2000),
        workers=st.integers(min_value=1, max_value=7),
    )
    @settings(deadline=None)
    def test_random_dictionary_matches_python_reference(
        self, pattern_words, text, workers
    ):
        dfa = DFA.build(PatternSet.from_strings(pattern_words))
        data = text.encode("latin-1")
        got = pairs_mc(dfa, data, workers=workers)
        assert got == match_serial_python(dfa, data)

    def test_binary_text_with_nul_patterns(self):
        dfa = DFA.build(PatternSet([b"\x00\x00", b"\xff\x00", b"ab"]))
        rng = np.random.default_rng(7)
        data = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        assert pairs_mc(dfa, data, workers=5) == pairs_serial(dfa, data)


class TestSlabSeams:
    """Matches straddling the worker-slab boundaries must survive."""

    def test_match_straddles_every_seam(self, paper_dfa):
        # Slabs of ceil(40/4)=10 bytes; plant "hers" across each seam.
        text = bytearray(b"." * 40)
        for seam in (10, 20, 30):
            text[seam - 2 : seam + 2] = b"hers"
        data = bytes(text)
        got = pairs_mc(paper_dfa, data, workers=4)
        assert got == pairs_serial(paper_dfa, data)
        assert len(got) == 6  # 3x "hers" + 3x embedded "he"

    def test_match_exactly_at_slab_start_and_end(self, paper_dfa):
        # 8-byte slabs at workers=2 over 16 bytes: matches owned by the
        # byte their *start* falls on, never double-reported.
        data = b"hers....hershers"
        got = pairs_mc(paper_dfa, data, workers=2)
        assert got == pairs_serial(paper_dfa, data)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_seam_sweep_around_powers_of_two(self, english_dfa, rng, n):
        text = random_text(rng, n, alphabet=b"theandwil")
        for workers in (1, 2, 3, 4, 8):
            assert pairs_mc(english_dfa, text, workers=workers) == pairs_serial(
                english_dfa, text
            ), f"divergence at n={n} workers={workers}"

    def test_long_pattern_overlap_exceeds_slab(self):
        # A pattern longer than the slab itself: overlap (max_len-1)
        # spans multiple downstream slabs and must still be honored.
        dfa = DFA.build(PatternSet([b"abcdefghijklmnop", b"cde"]))
        data = b"xx" + b"abcdefghijklmnop" * 3 + b"yy"
        for workers in (2, 5, 13):
            assert pairs_mc(dfa, data, workers=workers) == pairs_serial(dfa, data)


class TestShortLastSlab:
    def test_last_slab_shorter_than_others(self, paper_dfa):
        # 25 bytes / 4 workers -> slabs of 7,7,7,4.
        data = b"ushers his he hershey she"
        got = scan_multicore(paper_dfa, data, workers=4)
        assert got.matches.as_pairs() == pairs_serial(paper_dfa, data)
        assert got.n_slabs == 4
        assert int(got.worker_stats[-1].owned_end) == 25

    def test_more_workers_than_bytes(self, paper_dfa):
        data = b"she"
        got = scan_multicore(paper_dfa, data, workers=16)
        assert got.matches.as_pairs() == pairs_serial(paper_dfa, data)
        # plan_chunks caps the slab count at the byte count.
        assert got.n_slabs <= 3

    def test_single_byte_and_empty(self, paper_dfa):
        assert pairs_mc(paper_dfa, b"", workers=4) == []
        assert pairs_mc(paper_dfa, b"h", workers=4) == pairs_serial(paper_dfa, b"h")

    def test_text_shorter_than_overlap(self):
        dfa = DFA.build(PatternSet([b"abcdefghij"]))
        assert required_overlap(dfa.patterns.max_length) == 9
        data = b"abcde"
        assert pairs_mc(dfa, data, workers=3) == pairs_serial(dfa, data)


class TestApiAndStats:
    def test_matcher_wrapper_equals_function(self, english_dfa, rng):
        text = random_text(rng, 9000)
        m = MultiCoreMatcher(english_dfa, workers=3)
        assert m.scan(text).as_pairs() == pairs_mc(english_dfa, text, workers=3)
        res = m.scan_result(text)
        assert res.workers == 3
        assert res.matches.as_pairs() == m.scan(text).as_pairs()

    def test_worker_stats_partition_the_input(self, english_dfa, rng):
        text = random_text(rng, 10_000)
        res = scan_multicore(english_dfa, text, workers=4)
        assert res.n_slabs == 4
        # Owned regions tile [0, n) without gaps or overlap.
        assert res.worker_stats[0].start == 0
        for prev, cur in zip(res.worker_stats, res.worker_stats[1:]):
            assert cur.start == prev.owned_end
        assert res.worker_stats[-1].owned_end == res.input_bytes == 10_000
        # Per-worker match counts sum to the total.
        assert sum(s.matches for s in res.worker_stats) == len(res.matches)

    def test_overlap_redundancy_bounded(self, english_dfa, rng):
        text = random_text(rng, 50_000)
        res = scan_multicore(english_dfa, text, workers=4)
        overlap = required_overlap(english_dfa.patterns.max_length)
        n = res.input_bytes
        assert 1.0 <= res.overlap_redundancy <= 1.0 + (4 * overlap) / n

    def test_workers_zero_uses_host_cores(self, paper_dfa):
        res = scan_multicore(paper_dfa, b"ushers", workers=0)
        assert res.workers == max(os.cpu_count() or 1, 1)

    def test_negative_workers_rejected(self, paper_dfa):
        with pytest.raises(ChunkingError):
            scan_multicore(paper_dfa, b"x", workers=-1)
        with pytest.raises(ChunkingError):
            MultiCoreMatcher(paper_dfa, workers=-2)


class TestMeasurement:
    def test_measure_reports_sane_fields(self, english_dfa, rng):
        text = random_text(rng, 64 * 1024)
        meas = measure_multicore(english_dfa, text, workers=2, repeats=1)
        assert isinstance(meas, MulticoreMeasurement)
        assert meas.workers == 2
        assert meas.input_bytes == 64 * 1024
        assert meas.serial_seconds > 0 and meas.multicore_seconds > 0
        assert meas.speedup > 0
        assert meas.efficiency == pytest.approx(meas.speedup / 2)
        assert "workers" in meas.describe()

    def test_measure_rejects_zero_repeats(self, english_dfa):
        with pytest.raises(ChunkingError):
            measure_multicore(english_dfa, b"abc", repeats=0)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >= 4 physical cores",
    )
    def test_four_workers_at_least_2x_on_16mb(self, english_dfa, rng):
        # The ISSUE acceptance bar: >= 2x vs the single-threaded scan on
        # the 16 MB bench-cell geometry.  Gated on host core count; the
        # CI cpu-baseline job enforces it on 4-vCPU runners via
        # `repro-ac cpubench --min-speedup 2.0`.
        text = random_text(rng, 16 * 2**20)
        meas = measure_multicore(
            english_dfa, text, workers=4, repeats=3, chunk_len=DEFAULT_MC_CHUNK
        )
        assert meas.speedup >= 2.0, meas.describe()
