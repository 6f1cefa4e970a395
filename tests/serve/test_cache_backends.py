"""AutomatonCache keying on ``stt_backend`` (docs/MODEL.md §8).

The resident key is ``(digest, backend)``: the digest names the
automaton's *content* (patterns + fold flag, backend-free), the
backend names the *storage layout* the entry pre-materialized.  The
same dictionary under two backends must be two entries — a hit hands
back exactly the gather table the consumer will scan through — and
every hit still re-verifies the dense STT's build-time row CRCs, so a
cached entry is byte-identical to a fresh build or it is evicted.
"""

from __future__ import annotations

import pytest

from repro.serve.cache import AutomatonCache, pattern_set_digest

PATTERNS = ["he", "she", "his", "hers"]


def _flip_bit(entry, row=1, col=7):
    """Simulate bit rot in a cached entry's (read-only) dense STT."""
    table = entry.dfa.stt.table
    table.setflags(write=True)
    try:
        table[row, col] ^= 1
    finally:
        table.setflags(write=False)


class TestCompositeKeying:
    def test_same_digest_different_backend_no_collision(self):
        cache = AutomatonCache(capacity=8)
        e_compact, hit1 = cache.get_or_build(PATTERNS, stt_backend="compact")
        e_bitmap, hit2 = cache.get_or_build(PATTERNS, stt_backend="bitmap")
        assert not hit1 and not hit2  # second backend is NOT a hit
        assert e_compact is not e_bitmap
        assert e_compact.digest == e_bitmap.digest  # digest is backend-free
        assert e_compact.stt_backend == "compact"
        assert e_bitmap.stt_backend == "bitmap"
        assert len(cache) == 2
        # both resident under one digest
        assert cache.digests.count(e_compact.digest) == 2

    def test_repeat_lookup_per_backend_hits(self):
        cache = AutomatonCache(capacity=8)
        e1, _ = cache.get_or_build(PATTERNS, stt_backend="banded")
        e2, hit = cache.get_or_build(PATTERNS, stt_backend="banded")
        assert hit and e2 is e1
        assert cache.hits == 1 and cache.misses == 1
        digest = pattern_set_digest(PATTERNS)
        assert cache.get(digest, stt_backend="banded") is e1
        assert cache.get(digest, stt_backend="bitmap") is None

    def test_digest_is_backend_free(self):
        """pattern_set_digest has no backend input at all — the same
        patterns digest identically however they will be stored."""
        d = pattern_set_digest(PATTERNS)
        cache = AutomatonCache(capacity=8)
        for be in ("dense", "compact", "banded", "bitmap"):
            entry, _ = cache.get_or_build(PATTERNS, stt_backend=be)
            assert entry.digest == d
        assert len(cache) == 4
        assert d in cache  # __contains__ matches any backend

    def test_default_backend_is_consistent(self):
        """Positional legacy API: get() and get_or_build() default to
        the same backend, so a build is findable without kwargs."""
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS)
        assert cache.get(entry.digest) is entry

    def test_default_warm_cache_serves_default_scheduler(self):
        """Cache and scheduler share one default backend: a cache warmed
        with default arguments is hit, not rebuilt, by a default
        ScanScheduler."""
        from repro.serve import ScanScheduler

        cache = AutomatonCache(capacity=8)
        cache.get_or_build(PATTERNS)
        sched = ScanScheduler(cache=cache)
        sched.submit(PATTERNS, b"ushers")
        sched.drain()
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)


class TestHitVerification:
    def test_hit_re_verifies_byte_identity(self):
        """Corrupting the cached dense STT makes the *next* hit fail
        CRC verification and evict — only that backend's entry."""
        cache = AutomatonCache(capacity=8)
        e_banded, _ = cache.get_or_build(PATTERNS, stt_backend="banded")
        e_bitmap, _ = cache.get_or_build(PATTERNS, stt_backend="bitmap")
        _flip_bit(e_banded)  # bit rot in one entry
        digest = e_banded.digest
        assert cache.get(digest, stt_backend="banded") is None
        assert cache.corrupt_evictions == 1
        # the sibling backend entry is untouched and still verifies
        assert cache.get(digest, stt_backend="bitmap") is e_bitmap
        assert len(cache) == 1

    def test_rebuild_after_corrupt_eviction_is_fresh(self):
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS, stt_backend="compact")
        _flip_bit(entry, row=2, col=3)
        rebuilt, hit = cache.get_or_build(PATTERNS, stt_backend="compact")
        assert not hit and rebuilt is not entry
        rebuilt.verify()  # fresh build passes its own CRCs


class TestPreMaterialization:
    @pytest.mark.parametrize("backend", ["compact", "banded", "bitmap"])
    def test_gather_table_built_at_insert(self, backend):
        """A hit never pays the compression build: the gather table is
        memoized on the DFA by get_or_build, so asking again returns
        the same object without rebuilding."""
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS, stt_backend=backend)
        t1 = entry.dfa.gather_table(backend)
        t2 = entry.dfa.gather_table(backend)
        assert t1 is t2
        assert t1 is not None


class TestEvictionWithBackends:
    def test_lru_evicts_per_entry_not_per_digest(self):
        """Each (digest, backend) entry ages independently."""
        cache = AutomatonCache(capacity=2)
        e1, _ = cache.get_or_build(PATTERNS, stt_backend="compact")
        e2, _ = cache.get_or_build(PATTERNS, stt_backend="bitmap")
        # touch the compact entry so bitmap is LRU
        assert cache.get(e1.digest, stt_backend="compact") is e1
        cache.get_or_build(["other"], stt_backend="compact")
        assert cache.get(e1.digest, stt_backend="compact") is e1
        assert cache.get(e2.digest, stt_backend="bitmap") is None
        assert cache.evictions == 1
