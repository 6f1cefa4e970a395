"""AutomatonCache under several STT backends (docs/MODEL.md §8).

The resident key is the pattern-set digest alone: the digest names the
automaton's *content* (patterns + fold flag), and an entry holds the
DFA and its row CRCs but no gather table, so one entry serves every
storage backend.  A backend's table is built where it is first read and
memoized on the entry's DFA; every hit still re-verifies the dense
STT's build-time row CRCs, so a cached entry is byte-identical to a
fresh build or it is evicted.
"""

from __future__ import annotations

import pytest

from repro.serve.cache import AutomatonCache

PATTERNS = ["he", "she", "his", "hers"]


def _flip_bit(entry, row=1, col=7):
    """Simulate bit rot in a cached entry's (read-only) dense STT."""
    table = entry.dfa.stt.table
    table.setflags(write=True)
    try:
        table[row, col] ^= 1
    finally:
        table.setflags(write=False)


class TestHitVerification:
    def test_hit_re_verifies_byte_identity(self):
        """Corrupting the cached dense STT makes the *next* hit fail
        CRC verification and evict — only that dictionary's entry."""
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS)
        other, _ = cache.get_or_build(["virus", "worm"])
        entry.dfa.gather_table("bitmap")
        _flip_bit(entry)  # bit rot in one entry
        assert cache.get(entry.digest) is None
        assert cache.corrupt_evictions == 1
        # the other entry is untouched and still verifies
        assert cache.get(other.digest) is other
        assert len(cache) == 1

    def test_rebuild_after_corrupt_eviction_is_fresh(self):
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS)
        _flip_bit(entry, row=2, col=3)
        rebuilt, hit = cache.get_or_build(PATTERNS)
        assert not hit and rebuilt is not entry
        rebuilt.verify()  # fresh build passes its own CRCs


class TestPreMaterialization:
    @pytest.mark.parametrize("backend", ["compact", "banded", "bitmap"])
    def test_gather_table_built_at_insert(self, backend):
        """The cache pre-builds no gather table: the table is built
        where it is first read and memoized on the entry's DFA, so
        asking again returns the same object without rebuilding."""
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS)
        t1 = entry.dfa.gather_table(backend)
        t2 = entry.dfa.gather_table(backend)
        assert t1 is t2
        assert t1 is not None

    @pytest.mark.parametrize("backend", ["dense", "compact", "banded", "bitmap"])
    def test_insert_builds_no_gather_table(self, backend):
        """An insert builds no table; a first read builds its own only."""
        cache = AutomatonCache(capacity=8)
        entry, _ = cache.get_or_build(PATTERNS)
        assert entry.dfa._backends == {} and entry.dfa._compact is None
        entry.dfa.gather_table(backend)
        assert set(entry.dfa._backends) == {backend}
