"""AutomatonCache: digest keying, LRU behavior, and the byte-identity fuzz.

The load-bearing invariant: a cache *hit* hands back an automaton
byte-identical to what a fresh build would produce — the fuzz test
drives random interleavings of insert/evict/hit under a small capacity
and re-checks the STT bytes and CRC32 vector after every operation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet
from repro.core.integrity import stt_row_checksums, verify_row_checksums
from repro.errors import IntegrityError, ReproError
from repro.obs import Metrics, Tracer
from repro.serve import AutomatonCache, pattern_set_digest

#: Distinct small dictionaries the fuzz draws from (more than any
#: tested capacity, so evictions actually happen).
DICTIONARIES = [
    ["he", "she"],
    ["his", "hers"],
    ["ab", "abc"],
    ["a", "ba"],
    ["abcd"],
    ["c", "cc", "ccc"],
]


class TestDigest:
    def test_digest_is_stable(self):
        assert pattern_set_digest(["he", "she"]) == pattern_set_digest(
            ["he", "she"]
        )

    def test_length_prefixing_prevents_concat_collisions(self):
        assert pattern_set_digest(["ab", "c"]) != pattern_set_digest(
            ["a", "bc"]
        )

    def test_order_matters(self):
        assert pattern_set_digest(["ab", "cd"]) != pattern_set_digest(
            ["cd", "ab"]
        )

    def test_fold_flag_is_part_of_the_key(self):
        assert pattern_set_digest(
            ["He"], case_insensitive=True
        ) != pattern_set_digest(["He"], case_insensitive=False)

    def test_folded_spellings_collide_deliberately(self):
        """Case-insensitive builds of different spellings are the same
        automaton, so they must share a cache slot."""
        assert pattern_set_digest(
            ["He"], case_insensitive=True
        ) == pattern_set_digest(["he"], case_insensitive=True)


class TestLru:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            AutomatonCache(0)

    def test_eviction_is_least_recently_used(self):
        cache = AutomatonCache(2)
        e0, _ = cache.get_or_build(DICTIONARIES[0])
        e1, _ = cache.get_or_build(DICTIONARIES[1])
        cache.get(e0.digest)  # refresh 0; 1 becomes LRU
        cache.get_or_build(DICTIONARIES[2])
        assert e0.digest in cache
        assert e1.digest not in cache
        assert cache.evictions == 1

    def test_hit_and_miss_counters(self):
        cache = AutomatonCache(4)
        _, hit = cache.get_or_build(DICTIONARIES[0])
        assert not hit
        _, hit = cache.get_or_build(DICTIONARIES[0])
        assert hit
        assert (cache.hits, cache.misses) == (1, 1)

    def test_touch_is_a_hit_without_a_row_crc_pass(self, monkeypatch):
        metrics, tracer = Metrics(), Tracer()
        cache = AutomatonCache(2, metrics=metrics, tracer=tracer)
        e0, _ = cache.get_or_build(DICTIONARIES[0])
        e1, _ = cache.get_or_build(DICTIONARIES[1])
        verified = []
        monkeypatch.setattr(
            type(e0), "verify", lambda entry: verified.append(entry)
        )
        assert cache.touch(e0.digest)  # refresh 0; 1 becomes LRU
        assert verified == []
        assert (cache.hits, e0.hits) == (1, 1)
        assert [r.name for r in tracer.roots].count("cache_hit") == 1
        assert metrics.counter("automaton_cache_hits_total").value() == 1
        e2, _ = cache.get_or_build(DICTIONARIES[2])
        assert cache.digests == (e0.digest, e2.digest)
        assert not cache.touch(e1.digest)

    def test_metrics_and_tracer_threading(self):
        metrics, tracer = Metrics(), Tracer()
        cache = AutomatonCache(1, metrics=metrics, tracer=tracer)
        cache.get_or_build(DICTIONARIES[0])
        cache.get_or_build(DICTIONARIES[0])
        cache.get_or_build(DICTIONARIES[1])  # evicts 0
        names = [r.name for r in tracer.roots]
        assert names.count("cache_build") == 2
        assert names.count("cache_hit") == 1
        assert names.count("cache_evict") == 1
        doc = metrics.to_json()
        assert "automaton_cache_hits_total" in doc
        assert "automaton_cache_evictions_total" in doc

    def test_corrupted_entry_is_rejected(self):
        """A checksum/table mismatch (either side corrupted) is loud."""
        cache = AutomatonCache(2)
        entry, _ = cache.get_or_build(DICTIONARIES[0])
        original = entry.row_checksums.copy()
        entry.row_checksums = entry.row_checksums.copy()
        entry.row_checksums[0] ^= 1
        with pytest.raises(IntegrityError):
            entry.verify()
        entry.row_checksums = original
        entry.verify()  # restored: clean again


class TestCacheFuzz:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(DICTIONARIES) - 1),
                st.booleans(),  # also case_insensitive variants
            ),
            min_size=1,
            max_size=25,
        ),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def test_random_interleavings_keep_byte_identity(self, ops, capacity):
        """Any interleaving of insert/evict/hit: a cached automaton's
        STT stays byte-identical to a fresh build of its dictionary."""
        cache = AutomatonCache(capacity)
        for dict_idx, ci in ops:
            patterns = DICTIONARIES[dict_idx]
            entry, _ = cache.get_or_build(
                patterns, case_insensitive=ci
            )
            entry.verify()
            ps = PatternSet(patterns)
            if ci:
                ps = PatternSet.from_bytes(
                    [p.lower() for p in ps.as_bytes_list()]
                )
            fresh = DFA.build(ps)
            assert np.array_equal(entry.dfa.stt.table, fresh.stt.table)
            assert np.array_equal(
                entry.row_checksums, stt_row_checksums(fresh.stt)
            )
            assert len(cache) <= capacity

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.integers(min_value=0, max_value=len(DICTIONARIES) - 1),
            min_size=1,
            max_size=20,
        )
    )
    def test_lru_model_conformance(self, ops):
        """The cache's eviction choices match a reference LRU model."""
        capacity = 2
        cache = AutomatonCache(capacity)
        model: list = []  # digests, LRU first
        for dict_idx in ops:
            digest = pattern_set_digest(DICTIONARIES[dict_idx])
            cache.get_or_build(DICTIONARIES[dict_idx])
            if digest in model:
                model.remove(digest)
            model.append(digest)
            del model[:-capacity]
            assert list(cache.digests) == model


class TestCorruptEntryRecovery:
    """S1: checksum mismatch at lookup evicts and rebuilds, never raises."""

    def _flip_bit(self, entry) -> None:
        table = entry.dfa.stt.table
        table.setflags(write=True)
        try:
            table[1, 3] ^= 0x10  # injected bit-flip fault
        finally:
            table.setflags(write=False)

    def test_corrupt_hit_degrades_to_miss(self):
        metrics = Metrics()
        cache = AutomatonCache(4, metrics=metrics)
        entry, _ = cache.get_or_build(["he", "she"])
        digest = entry.digest
        self._flip_bit(entry)
        assert cache.get(digest) is None  # evicted, not raised
        assert digest not in cache
        assert cache.corrupt_evictions == 1
        doc = metrics.as_dict()
        assert any("corrupt_evictions" in k for k in doc)

    def test_rebuild_after_corruption_is_correct(self):
        cache = AutomatonCache(4)
        patterns = ["he", "she", "his", "hers"]
        entry, _ = cache.get_or_build(patterns)
        self._flip_bit(entry)
        healed, was_hit = cache.get_or_build(patterns)
        assert not was_hit  # the corrupt entry could not serve the hit
        fresh = DFA.build(PatternSet.from_strings(patterns))
        assert np.array_equal(healed.dfa.stt.table, fresh.stt.table)
        assert not verify_row_checksums(
            healed.dfa.stt.table, healed.row_checksums
        )

    def test_clean_entries_survive_a_neighbors_corruption(self):
        cache = AutomatonCache(4)
        bad, _ = cache.get_or_build(["he", "she"])
        good, _ = cache.get_or_build(["his", "hers"])
        self._flip_bit(bad)
        assert cache.get(bad.digest) is None
        assert cache.get(good.digest) is good
