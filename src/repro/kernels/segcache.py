"""Simulation segment memoization for repeated bench cells.

A bench grid re-runs the *same* functional simulation many times over:
the five shared-memory variants of one cell differ only in bank
*scheme* (``diagonal`` / ``coalesce_only`` / ``naive`` / ``transposed``)
or STT *placement* (``shared_global_stt``) — knobs that change the
staging templates and the pricing, **not** the scan, the match set, or
the texture-traffic classification — and a perf-gate rerun repeats
whole cells verbatim.  This module memoizes those scan segments behind
content keys so identical work is done once per process.

Keying rules (docs/MODEL.md §14):

* the automaton is identified by the digest of its pattern set
  (:meth:`repro.core.pattern_set.PatternSet.digest`, memoized on the
  set) — the DFA is a deterministic function of its pattern list —
  **never** by holding a DFA reference, so a cached segment cannot pin
  an evicted automaton (:class:`repro.serve.cache.AutomatonCache`
  stays the only owner);
* the input is identified by a content digest of its bytes, memoized
  per array object (weakref) so a resident bench text is hashed once;
* every knob the segment's numbers depend on is part of the key: the
  resolved backend name, tile length, chunk geometry, and the
  device/cost-parameter
  dataclasses (via their ``repr`` — both are frozen dataclasses of
  plain scalars).  Pricing-only knobs (scheme, ``stt_in_texture``,
  device clocks) are deliberately **not** in the key — that is where
  the sharing comes from.

Cached values are treated as immutable by every consumer (they are
measurement outputs); callers must not mutate arrays they get back.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np

#: Default bound on resident segments.  Segments hold match arrays and
#: traffic summaries — small next to the scans they replace — but the
#: bound keeps a long sweep from accumulating without limit.
#: ``configure(max_entries=0)`` turns memoization off.
DEFAULT_MAX_ENTRIES = 32


class SegmentCache:
    """Bounded, thread-safe LRU of simulation segments."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached segment for *key*, or None (LRU-refreshing)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a segment, evicting least-recently-used past the bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/occupancy snapshot (bench metadata, tests)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }


#: Process-wide cache instance the kernel measurers share.
CACHE = SegmentCache()


def configure(max_entries: Optional[int] = None) -> None:
    """Adjust the shared cache's bound (shrinking evicts immediately)."""
    if max_entries is not None:
        CACHE.max_entries = max_entries
        with CACHE._lock:
            while len(CACHE._entries) > CACHE.max_entries:
                CACHE._entries.popitem(last=False)


def clear() -> None:
    """Drop all cached segments (tests, memory pressure)."""
    CACHE.clear()


# -- content digests -------------------------------------------------------

# id -> (weakref-to-array, digest).  Only base arrays (owning their
# memory) are memoized by identity: a view's buffer can be mutated
# through its base without the view's id changing hands.
_data_digest_memo: dict = {}
_memo_lock = threading.Lock()


def data_digest(arr: np.ndarray) -> str:
    """Content digest of an input array, memoized per resident object.

    The memo assumes the array is not mutated after first digest —
    true for every bench text (they are generated once and scanned
    many times).  Non-owning views are hashed fresh each call.
    """
    arr = np.ascontiguousarray(arr)
    if arr.base is not None:
        return hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()
    key = id(arr)
    with _memo_lock:
        memo = _data_digest_memo.get(key)
        if memo is not None:
            ref, digest = memo
            if ref() is arr:
                return digest
    digest = hashlib.blake2b(arr, digest_size=16).hexdigest()
    with _memo_lock:
        try:
            _data_digest_memo[key] = (weakref.ref(arr), digest)
        except TypeError:
            pass
        # Opportunistically drop dead memo slots.
        dead = [k for k, (r, _) in _data_digest_memo.items() if r() is None]
        for k in dead:
            del _data_digest_memo[k]
    return digest


def segment_key(kind: str, dfa, arr: np.ndarray, *parts) -> Tuple:
    """Build a cache key.

    ``parts`` must be hashable scalars/strings (pass frozen dataclasses
    through ``repr``).  The DFA and data enter as content digests only.
    """
    return (kind, dfa.patterns.digest(), data_digest(arr)) + tuple(parts)


def segment_get(key: Tuple) -> Optional[Any]:
    """Cached segment for *key*, or None."""
    return CACHE.get(key)


def segment_put(key: Tuple, value: Any) -> None:
    """Store a segment under *key*."""
    CACHE.put(key, value)
