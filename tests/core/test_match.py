"""Unit tests for Match/MatchResult containers."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro import Matcher
from repro.core import DFA, Match, MatchResult
from repro.core.multicore import scan_multicore
from repro.core.serial import match_serial
from repro.workload.datasets import DatasetFactory


class TestMatch:
    def test_ordering(self):
        assert Match(1, 5) < Match(2, 0)
        assert Match(2, 0) < Match(2, 1)

    def test_start(self):
        assert Match(end=9, pattern_id=0).start(pattern_length=4) == 6


class TestCanonicalization:
    def test_sorted_and_deduped(self):
        r = MatchResult(np.array([5, 3, 5, 3]), np.array([1, 0, 1, 0]))
        assert r.as_pairs() == [(3, 0), (5, 1)]

    def test_equality_ignores_input_order(self):
        a = MatchResult(np.array([9, 1]), np.array([0, 2]))
        b = MatchResult(np.array([1, 9]), np.array([2, 0]))
        assert a == b and hash(a) == hash(b)

    def test_same_end_different_patterns_kept(self):
        r = MatchResult(np.array([4, 4]), np.array([1, 0]))
        assert r.as_pairs() == [(4, 0), (4, 1)]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            MatchResult(np.array([1, 2]), np.array([1]))

    def test_arrays_readonly(self):
        r = MatchResult(np.array([1]), np.array([0]))
        with pytest.raises(ValueError):
            r.ends[0] = 5


class TestAlreadyCanonicalInput:
    """Keys that already ascend strictly skip the sort, nothing else."""

    def test_fresh_equal_arrays_and_caller_stays_writeable(self):
        ends = np.array([1, 4, 4, 9], dtype=np.int64)
        pids = np.array([3, 0, 2, 1], dtype=np.int64)
        r = MatchResult(ends, pids)
        assert np.array_equal(r.ends, ends)
        assert np.array_equal(r.pattern_ids, pids)
        assert not np.shares_memory(r.ends, ends)
        assert not np.shares_memory(r.pattern_ids, pids)
        assert ends.flags.writeable and pids.flags.writeable
        assert not r.ends.flags.writeable

    def test_empty_input_stays_writeable(self):
        ends = np.empty(0, dtype=np.int64)
        pids = np.empty(0, dtype=np.int64)
        MatchResult(ends, pids)
        assert ends.flags.writeable and pids.flags.writeable

    def test_sorted_input_with_duplicates_is_deduped(self):
        r = MatchResult(np.array([1, 1, 2, 5, 5]), np.array([0, 0, 3, 1, 1]))
        assert r.as_pairs() == [(1, 0), (2, 3), (5, 1)]

    def test_equal_end_descending_ids_are_sorted(self):
        r = MatchResult(np.array([1, 4, 4, 6]), np.array([0, 2, 1, 0]))
        assert r.as_pairs() == [(1, 0), (4, 1), (4, 2), (6, 0)]

    def test_concatenated_slab_results(self):
        a = MatchResult.from_pairs([(0, 1), (2, 0), (2, 1)])
        b = MatchResult.from_pairs([(3, 0), (7, 2)])
        merged = MatchResult(
            np.concatenate([a.ends, b.ends]),
            np.concatenate([a.pattern_ids, b.pattern_ids]),
        )
        assert merged.as_pairs() == a.as_pairs() + b.as_pairs()


I64_MAX = 2**63 - 1

#: Values that land on both canonicalization paths: small non-negative
#: ones pack into one key; negatives, ids >= 2**31 beside large ends,
#: and ends near 2**62 overflow it and take the lexsort.
_values = st.one_of(
    st.integers(0, 40),
    st.integers(-(2**63), I64_MAX),
    st.integers(2**31 - 2, 2**31 + 2),
    st.integers(2**62 - 2, 2**62 + 2),
)


def _cols(pairs):
    """``(ends, pattern_ids)`` int64 columns of ``(end, id)`` pairs."""
    return (
        np.array([e for e, _ in pairs], dtype=np.int64),
        np.array([p for _, p in pairs], dtype=np.int64),
    )


@st.composite
def _pair_columns(draw):
    """Columns of arbitrary pairs, often with many repeats."""
    pool = draw(st.lists(st.tuples(_values, _values), min_size=1, max_size=6))
    pairs = draw(
        st.one_of(
            st.lists(st.tuples(_values, _values), max_size=40),
            st.lists(st.sampled_from(pool), max_size=80),
        )
    )
    return _cols(pairs)


@pytest.fixture
def lexsort_sizes(monkeypatch):
    """Input length of every ``np.lexsort`` call made during the test."""
    real = np.lexsort
    sizes = []

    def spy(keys, axis=-1):
        sizes.append(len(keys[0]))
        return real(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", spy)
    return sizes


class TestCanonicalOrderProperty:
    @given(_pair_columns())
    @example(_cols([]))
    @example(_cols([(5, -1), (-3, 2), (5, -1), (-3, -7)]))
    @example(_cols([(-(2**62) - 1, 1), (0, 0)]))
    @example(_cols([(9, 2**31), (2, 2**31 + 1), (9, 2**31)]))
    @example(_cols([(2**62 - 1, 0), (2**62 - 2, 0), (2**62 - 1, 0)]))
    @example(_cols([(2**62 + 1, 3), (2**61, 1), (2**62 + 1, 3)]))
    @example(_cols([(I64_MAX, I64_MAX), (-(2**63), 0), (I64_MAX, I64_MAX)]))
    @example(_cols([(7, 1), (3, 0)] * 50))
    def test_matches_sorted_set_of_pairs(self, cols):
        ends, pids = cols
        before = (ends.copy(), pids.copy())
        r = MatchResult(ends, pids)
        assert r.as_pairs() == sorted(set(zip(ends.tolist(), pids.tolist())))
        assert not r.ends.flags.writeable
        assert not r.pattern_ids.flags.writeable
        assert r.ends.dtype == r.pattern_ids.dtype == np.int64
        # The caller's columns are never sorted in place.
        assert np.array_equal(ends, before[0])
        assert np.array_equal(pids, before[1])

    @pytest.mark.parametrize(
        "pairs, lexsorted",
        [
            ([(3, 0), (1, 0)], False),
            ([(2**62 - 1, 0), (0, 0)], False),
            ([(2**30, 2**31 - 1), (0, 0)], False),
            ([(2**31, 2**31 - 1), (0, 0)], True),
            ([(2**61, 1), (0, 0)], True),
            ([(1, -1), (0, 0)], True),
            ([(-1, 1), (0, 0)], True),
        ],
    )
    def test_lexsort_only_where_the_key_overflows(
        self, pairs, lexsorted, lexsort_sizes
    ):
        r = MatchResult(*_cols(pairs))
        assert r.as_pairs() == sorted(pairs)
        assert bool(lexsort_sizes) is lexsorted


@pytest.fixture(scope="module")
def dense_magazine():
    """A 64 KiB magazine slice against 1,000 of the paper's patterns."""
    factory = DatasetFactory(seed=2013)
    dfa = DFA.build(factory.patterns_for(1000))
    return dfa, factory.corpus.generate_array(64 * 1024, stream_seed=11)


class TestEnginesSkipLexsort:
    def test_engine_results_never_reach_lexsort(self, dense_magazine, lexsort_sizes):
        """Every engine's pairs fit the packed key, so none is lexsorted.

        Covers the tiled engine (serial), the per-slab results and the
        merge of the multicore scan, and the gpu backend's scan
        segment.
        """
        dfa, text = dense_magazine
        serial = match_serial(dfa, text)
        multicore = scan_multicore(dfa, text, workers=2).matches
        on_gpu = Matcher.from_dfa(dfa, backend="gpu").scan(text)
        assert len(serial) >= 0.1 * text.size  # workload premise
        assert multicore == serial and on_gpu == serial
        assert not lexsort_sizes, f"np.lexsort ran on {lexsort_sizes} pairs"


class TestConstructorsAndViews:
    def test_empty(self):
        r = MatchResult.empty()
        assert len(r) == 0 and r.as_pairs() == []

    def test_from_pairs_roundtrip(self):
        pairs = [(3, 0), (3, 1), (5, 3)]
        assert MatchResult.from_pairs(pairs).as_pairs() == pairs

    def test_from_pairs_empty(self):
        assert len(MatchResult.from_pairs([])) == 0

    def test_concat_unions(self):
        a = MatchResult.from_pairs([(1, 0), (2, 0)])
        b = MatchResult.from_pairs([(2, 0), (3, 1)])
        assert MatchResult.concat([a, b]).as_pairs() == [(1, 0), (2, 0), (3, 1)]

    def test_concat_empty_list(self):
        assert len(MatchResult.concat([])) == 0

    def test_iter_yields_match_objects(self):
        r = MatchResult.from_pairs([(1, 0)])
        assert list(r) == [Match(1, 0)]

    def test_as_set(self):
        r = MatchResult.from_pairs([(3, 0), (5, 3)])
        assert r.as_set() == {(3, 0), (5, 3)}

    def test_eq_other_type(self):
        assert MatchResult.empty() != 42


class TestDerivedViews:
    def test_starts(self):
        r = MatchResult.from_pairs([(3, 0), (3, 1), (5, 3)])
        lengths = np.array([2, 3, 3, 4])  # he, she, his, hers
        assert r.starts(lengths).tolist() == [2, 1, 2]

    def test_count_by_pattern(self):
        r = MatchResult.from_pairs([(1, 0), (2, 0), (9, 3)])
        assert r.count_by_pattern(4).tolist() == [2, 0, 0, 1]

    def test_restrict_to_range(self):
        r = MatchResult.from_pairs([(1, 0), (5, 1), (9, 2)])
        assert r.restrict_to_range(2, 9).as_pairs() == [(5, 1)]
