"""Differential tests: scan_multicore is byte-identical to match_serial.

The multicore matcher splits the input into one slab per worker.  Each
slab runs the single-thread scan entered in the state the serial scan
holds at the slab's first byte (a root walk over at most
``max_length`` bytes before the slab), so it reports exactly the
serial matches that *end* inside it.  Everything here pins the union
of slab results to the serial match set exactly, with explicit
coverage of the failure modes that rule is exposed to: matches
straddling one or several slab seams, a short final slab, slabs on
both sides of the vectorization threshold, NUL patterns and more
workers than bytes.  The lane plan each slab runs, and the worker
counts the API accepts, are pinned too.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tiled as tiled
from repro import Matcher
from repro.core import DFA, PatternSet
from repro.core.chunking import required_overlap
from repro.core.multicore import (
    MulticoreMeasurement,
    measure_multicore,
    scan_multicore,
)
from repro.core.serial import (
    VECTOR_THRESHOLD,
    _lane_plan,
    _tile_len,
    match_serial,
    match_serial_python,
)
from repro.errors import ChunkingError
from repro.workload.datasets import DatasetFactory

from tests.conftest import random_text


def pairs_mc(dfa, data, **kw):
    return scan_multicore(dfa, data, **kw).matches.as_pairs()


def pairs_serial(dfa, data):
    return match_serial(dfa, data).as_pairs()


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
        # slab their *end* falls in, never double-reported.
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
        # A pattern longer than the slab itself: the lead walk that
        # carries the state in reaches back across several slabs.
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
        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert res.workers == max(usable, 1)

    def test_workers_zero_counts_only_usable_cores(self, paper_dfa, monkeypatch):
        # os.cpu_count() also counts cores outside the affinity set,
        # which a cpuset-restricted process cannot run on.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert scan_multicore(paper_dfa, b"ushers", workers=0).workers == 1
        meas = measure_multicore(paper_dfa, b"ushers", workers=2, repeats=1)
        assert meas.host_cores == 1

    def test_negative_workers_rejected(self, paper_dfa):
        with pytest.raises(ChunkingError):
            scan_multicore(paper_dfa, b"x", workers=-1)


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
        meas = measure_multicore(english_dfa, text, workers=4, repeats=3)
        assert meas.speedup >= 2.0, meas.describe()


#: Seam-case alphabet: NUL is the byte the tiled engine pads lanes with.
_SEAM_ALPHABET = b"ab\x00"


def _seam_word(min_size: int, max_size: int):
    return st.lists(
        st.sampled_from(_SEAM_ALPHABET), min_size=min_size, max_size=max_size
    ).map(bytes)


@st.composite
def seam_case(draw):
    """A text, a dictionary and a worker count with matches on seams.

    Slabs are either a few bytes (scalar walks, a short last slab, and
    room for a pattern that starts in slab ``w`` and ends in slab
    ``w + 2``) or within one byte of :data:`VECTOR_THRESHOLD` (tiled
    scans entered in the carried state; the last slab may fall below
    it).  The longest pattern is planted ending on the last byte
    before a seam.
    """
    workers = draw(st.integers(min_value=2, max_value=6))
    per_slab = draw(
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.sampled_from(
                [VECTOR_THRESHOLD - 1, VECTOR_THRESHOLD, VECTOR_THRESHOLD + 1]
            ),
        )
    )
    small = per_slab < VECTOR_THRESHOLD - 1
    short = draw(st.integers(0, per_slab - 1 if small else workers - 1))
    n = workers * per_slab - short
    slab = -(-n // workers)
    seams = list(range(slab, n, slab))
    words = draw(st.lists(_seam_word(1, 4), min_size=1, max_size=4))
    spanning = None
    if small:
        spanning = draw(_seam_word(slab + 2, 2 * slab + 1))
        words.append(spanning)
    words = list(dict.fromkeys(words))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = bytearray(
        rng.choice(np.frombuffer(_SEAM_ALPHABET, np.uint8), size=n).tobytes()
    )

    def plant(word: bytes, start: int) -> None:
        if start >= 0 and start + len(word) <= n:
            text[start : start + len(word)] = word

    if spanning is not None and len(seams) >= 2:
        # Starts on the last byte of slab 0, ends inside slab 2.
        plant(spanning, seams[0] - 1)
    if seams:
        longest = max(words, key=len)
        plant(longest, seams[-1] - len(longest))
    return PatternSet.from_bytes(words), bytes(text), workers


class TestCarriedStateSeams:
    @settings(max_examples=150, deadline=None)
    @given(seam_case())
    def test_slabs_equal_the_python_reference(self, case):
        patterns, text, workers = case
        dfa = DFA.build(patterns)
        got = pairs_mc(dfa, text, workers=workers)
        assert got == match_serial_python(dfa, text)

    def test_longest_pattern_ending_before_a_seam(self):
        # 4 slabs of 1,100 bytes; "abcdefgh" ends on each slab's last byte.
        dfa = DFA.build(PatternSet([b"abcdefgh", b"gh", b"ha"]))
        text = bytearray(b"x" * 4400)
        for seam in (1100, 2200, 3300):
            text[seam - 8 : seam] = b"abcdefgh"
            text[seam] = ord("a")
        data = bytes(text)
        got = pairs_mc(dfa, data, workers=4)
        assert got == pairs_serial(dfa, data)
        assert sum(1 for _, pid in got if pid == 0) == 3

    def test_match_from_slab_w_to_slab_w_plus_2(self):
        # Slabs of 5 bytes; the 10-byte pattern starts on byte 4 (slab
        # 0) and ends on byte 13 (slab 2 is bytes 10-14).
        dfa = DFA.build(PatternSet([b"abcdefghij", b"ef"]))
        data = b"....abcdefghij......"
        got = pairs_mc(dfa, data, workers=4)
        assert got == pairs_serial(dfa, data)
        assert (13, 0) in got


@pytest.fixture(scope="module")
def magazine_dfa():
    """The paper's 1,000-pattern magazine dictionary (overlap 15)."""
    return DFA.build(DatasetFactory(seed=2013).patterns_for(1000))


def _tile_spy(monkeypatch):
    """Per ``iter_dfa_tiles`` call: its plan shape, tile length and rows."""
    calls = []
    real = tiled.iter_dfa_tiles

    def spy(dfa, data, plan, **kwargs):
        rows = 0
        for tile in real(dfa, data, plan, **kwargs):
            rows += tile.j1 - tile.j0
            yield tile
        calls.append(
            (plan.n, plan.chunk_len, plan.n_chunks, kwargs["tile_len"], rows)
        )

    monkeypatch.setattr(tiled, "iter_dfa_tiles", spy)
    return calls


class TestConcurrentLanePlan:
    """Slabs scanned at once get wider lanes and shorter tiles."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2 * 4096**2),
        overlap=st.integers(min_value=0, max_value=3000),
        slabs=st.integers(min_value=2, max_value=8),
    )
    def test_lanes_chunk_and_tile_cells(self, n, overlap, slabs):
        plan = _lane_plan(n, overlap, slabs)
        assert plan.n == n and plan.overlap == overlap
        assert plan.n_chunks <= slabs * 4096
        assert min(4 * overlap, n, 4096) <= plan.chunk_len <= n
        tile_len = _tile_len(plan.n_chunks, slabs)
        assert tile_len >= 1
        assert tile_len * plan.n_chunks * slabs <= 256 * 4096

    def test_two_worker_2mb_scan_steps_at_most_138_rows_per_slab(
        self, magazine_dfa, monkeypatch
    ):
        """1,000 patterns, 2 MB, 2 workers: 138 lockstep rows per slab.

        Fixed 1,024-byte lanes stepped 1,039 rows per slab.
        """
        assert required_overlap(magazine_dfa.patterns.max_length) == 15
        calls = _tile_spy(monkeypatch)
        rng = np.random.default_rng(17)
        text = rng.integers(97, 123, size=2_000_000, dtype=np.uint8)
        got = scan_multicore(magazine_dfa, text, workers=2)
        assert got.n_slabs == 2
        assert len(calls) == 2
        assert max(rows for *_, rows in calls) <= 138
        assert got.matches == match_serial(magazine_dfa, text)

    def test_one_worker_steps_match_serials_plan(
        self, english_dfa, rng, monkeypatch
    ):
        text = random_text(rng, 300_000)
        calls = _tile_spy(monkeypatch)
        want = match_serial(english_dfa, text)
        serial_plan = list(calls)
        assert len(serial_plan) == 1
        calls.clear()
        assert scan_multicore(english_dfa, text, workers=1).matches == want
        assert calls == serial_plan
        calls.clear()
        # One usable core: workers=0 is one slab too.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert scan_multicore(english_dfa, text, workers=0).matches == want
        assert calls == serial_plan


class TestWorkerValidation:
    """Worker counts are non-negative ints, checked where they enter."""

    BAD = [-1, 2.5, True, False, "2", None]

    @pytest.mark.parametrize("bad", BAD)
    def test_matcher_rejects_at_build(self, bad):
        with pytest.raises(ChunkingError):
            Matcher(["he", "she"], backend="serial_mt", workers=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_from_dfa_rejects_at_build(self, paper_dfa, bad):
        with pytest.raises(ChunkingError):
            Matcher.from_dfa(paper_dfa, backend="serial_mt", workers=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_scan_and_measure_reject(self, paper_dfa, bad):
        with pytest.raises(ChunkingError):
            scan_multicore(paper_dfa, b"ushers", workers=bad)
        with pytest.raises(ChunkingError):
            measure_multicore(paper_dfa, b"ushers", workers=bad, repeats=1)

    def test_numpy_integers_accepted(self, paper_dfa):
        m = Matcher.from_dfa(paper_dfa, backend="serial_mt", workers=np.int64(2))
        assert m.workers == 2 and type(m.workers) is int
        assert m.findall("ushers") == Matcher.from_dfa(paper_dfa).findall("ushers")
