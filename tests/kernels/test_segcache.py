"""Segment memoization: keying rules, bounds, and automaton lifetime.

Two contracts, both load-bearing for the paper-scale bench grids:

* memoized segments are **content**-addressed (docs/MODEL.md §14) — a
  repeat of identical work is served from cache with byte-identical
  results, pricing-only knobs share one segment, and turning the cache
  off (``configure(max_entries=0)``) changes nothing but the work done;
* the cache never extends an automaton's lifetime: keys hold digests,
  not DFA references, so an automaton evicted from
  :class:`~repro.serve.cache.AutomatonCache` is freed together with
  its memoized gather/fused tables (which live *on* the DFA), and
  resident segments stay bounded across hot-swap epochs.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import DFA, PatternSet
from repro.core.tiled import tile_state_dtype
from repro.gpu import Device
from repro.kernels import segcache
from repro.kernels.shared_mem import run_shared_kernel
from repro.serve.cache import AutomatonCache

TEXT = np.frombuffer(
    b"she sells seashells; he and hers went there with his hat " * 40,
    dtype=np.uint8,
).copy()


@pytest.fixture(autouse=True)
def fresh_segcache():
    """Isolate every test: empty shared cache, default bound."""
    saved = segcache.CACHE.max_entries
    segcache.clear()
    yield
    segcache.CACHE.max_entries = saved
    segcache.clear()


class TestSegmentCacheBounds:
    def test_lru_evicts_oldest(self):
        c = segcache.SegmentCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert len(c) == 2
        assert c.get("a") is None
        assert c.get("b") == 2 and c.get("c") == 3

    def test_get_refreshes_recency(self):
        c = segcache.SegmentCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh: "b" is now LRU
        c.put("c", 3)
        assert c.get("b") is None
        assert c.get("a") == 1

    def test_configure_shrink_evicts_immediately(self):
        for i in range(8):
            segcache.CACHE.put(("k", i), i)
        segcache.configure(max_entries=3)
        assert len(segcache.CACHE) == 3
        stats = segcache.CACHE.stats()
        assert stats["max_entries"] == 3

    def test_stats_counts_hits_and_misses(self):
        c = segcache.SegmentCache()
        c.get("missing")
        c.put("k", 1)
        c.get("k")
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1


class TestKeying:
    def test_disabled_by_zero_bound(self, paper_dfa):
        segcache.configure(max_entries=0)
        key = segcache.segment_key("kind", paper_dfa, TEXT, 1, 2)
        segcache.segment_put(key, "value")  # evicted on insert
        assert len(segcache.CACHE) == 0
        assert segcache.segment_get(key) is None

    def test_key_is_content_addressed(self):
        """Two builds of the same dictionary share one key; a different
        dictionary does not."""
        a1 = DFA.build(PatternSet([b"he", b"she"]))
        a2 = DFA.build(PatternSet([b"he", b"she"]))
        b = DFA.build(PatternSet([b"he", b"hers"]))
        k1 = segcache.segment_key("kind", a1, TEXT, "x")
        k2 = segcache.segment_key("kind", a2, TEXT, "x")
        kb = segcache.segment_key("kind", b, TEXT, "x")
        assert k1 == k2
        assert k1 != kb
        assert k1 != segcache.segment_key("other", a1, TEXT, "x")
        assert k1 != segcache.segment_key("kind", a1, TEXT, "y")

    def test_data_digest_tracks_content(self):
        x = np.arange(64, dtype=np.uint8)
        y = np.arange(64, dtype=np.uint8)
        z = np.arange(1, 65, dtype=np.uint8)
        assert segcache.data_digest(x) == segcache.data_digest(y)
        assert segcache.data_digest(x) != segcache.data_digest(z)
        # Memoized per resident object: a second call is served by id.
        assert segcache.data_digest(x) == segcache.data_digest(x)


class TestKernelMemoization:
    def test_repeat_run_hits_and_is_byte_identical(self, english_dfa):
        first = run_shared_kernel(english_dfa, TEXT, Device())
        before = segcache.CACHE.stats()["hits"]
        second = run_shared_kernel(english_dfa, TEXT, Device())
        assert segcache.CACHE.stats()["hits"] > before
        assert second.matches == first.matches
        assert second.counters == first.counters
        assert second.timing == first.timing

    def test_pricing_only_knobs_share_one_segment(self, english_dfa):
        """scheme / stt_in_texture change pricing, not the scan — the
        second variant must be a cache hit with the same match set."""
        base = run_shared_kernel(english_dfa, TEXT, Device(), scheme="diagonal")
        before = segcache.CACHE.stats()
        naive = run_shared_kernel(english_dfa, TEXT, Device(), scheme="naive")
        glob = run_shared_kernel(
            english_dfa, TEXT, Device(), stt_in_texture=False
        )
        after = segcache.CACHE.stats()
        assert after["hits"] == before["hits"] + 2
        assert after["misses"] == before["misses"]
        assert naive.matches == base.matches
        assert glob.matches == base.matches
        # ...while the priced outcomes still differ where they should.
        assert naive.counters.bank_conflict_excess > 0

    def test_disabled_cache_changes_nothing_but_work(self, english_dfa):
        on = run_shared_kernel(english_dfa, TEXT, Device())
        segcache.configure(max_entries=0)
        hits = segcache.CACHE.stats()["hits"]
        off = run_shared_kernel(english_dfa, TEXT, Device())
        assert segcache.CACHE.stats()["hits"] == hits  # recomputed
        assert off.matches == on.matches
        assert off.counters == on.counters
        assert off.timing == on.timing


class TestAutomatonLifetime:
    """Satellite: eviction must drop the memoized gather tables too."""

    def _measure(self, dfa):
        res = run_shared_kernel(dfa, TEXT, Device())
        assert len(res.matches) >= 0  # keep no reference past this frame

    def test_evicted_automaton_is_freed(self):
        """A segcache-warm DFA dies with its AutomatonCache entry.

        The fused/compact gather tables are cached *on* the DFA
        (``dense_fused_tables`` et al.), so proving the DFA is
        collectable proves the memoized tables went with it; the
        segment cache may only retain content digests.
        """
        cache = AutomatonCache(capacity=1)
        entry, hit = cache.get_or_build(["he", "she", "hers"])
        assert not hit
        dfa = entry.dfa
        dfa.dense_fused_tables(tile_state_dtype(dfa))
        self._measure(dfa)  # populate the segment cache for this digest
        ref = weakref.ref(dfa)
        del entry, dfa
        cache.get_or_build(["completely", "different"])  # evicts the first
        gc.collect()
        assert ref() is None, (
            "evicted automaton still reachable — a memoized gather table "
            "or segment key is holding a DFA reference"
        )

    def test_hot_swap_epochs_stay_bounded(self):
        """Many rule-set epochs: resident segments and automata bounded."""
        segcache.configure(max_entries=4)
        cache = AutomatonCache(capacity=2)
        refs = []
        for epoch in range(8):
            entry, _ = cache.get_or_build([f"pat{epoch}", f"word{epoch}x"])
            self._measure(entry.dfa)
            refs.append(weakref.ref(entry.dfa))
            del entry
        gc.collect()
        assert len(segcache.CACHE) <= 4
        assert len(cache) == 2
        alive = sum(r() is not None for r in refs)
        assert alive <= 2, f"{alive} automata alive with capacity 2"
