"""LRU automaton cache keyed by pattern-set digest.

The paper's 127 Gbps headline assumes the STT is *resident* — build
and bind are one-time costs amortized over days of scanning.  A
serving front end sees the same shape at request granularity: most
requests reuse one of a handful of dictionaries (an IDS rule set, an
AV signature DB, a tenant's watchlist), so rebuilding the automaton
per request would dwarf the scan itself.  :class:`AutomatonCache`
memoizes compiled :class:`~repro.core.dfa.DFA`\\ s behind a
content-addressed key so a repeat pattern set skips phase-1
construction entirely, and carries the STT's per-row CRC32 vector
(:mod:`repro.core.integrity`) so every consumer that reads the cached
table can first re-verify that it is byte-identical to a fresh build.

Keying rules (docs/MODEL.md §8):

* the key is :meth:`PatternSet.digest
  <repro.core.pattern_set.PatternSet.digest>`: a SHA-256 over the
  patterns **in id order**, each length-prefixed (so ``["ab","c"]``
  and ``["a","bc"]`` cannot collide), plus the ``case_insensitive``
  build flag, computed once per set and fold flag;
* the fold flag is part of the key because a folded and an unfolded
  build of the same patterns are *different automata*;
* pattern order matters — ids are positional and results carry
  pattern ids, so a reordered dictionary is a different entry;
* the storage backend is not part of the key: an entry holds the DFA
  and its row CRCs and pre-builds no gather table, so one entry serves
  every backend.  A table is built where it is first read (a device
  bind fuses its copy straight from the verified dense STT; a CPU scan
  memoizes the backend's table on the DFA).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dfa import DFA
from repro.core.integrity import stt_row_checksums, verify_row_checksums
from repro.core.pattern_set import PatternSet
from repro.errors import IntegrityError, ReproError
from repro.obs import NULL_METRICS, NULL_TRACER


def pattern_set_digest(
    patterns: Union[Sequence, PatternSet], *, case_insensitive: bool = False
) -> str:
    """Content digest of a dictionary + build flags (hex, 64 chars).

    Two pattern sets share a digest iff they build byte-identical
    automata: same patterns, same id order, same fold flag.  It is
    :meth:`PatternSet.digest`, memoized on the set; a plain sequence
    is validated and hashed again on every call.
    """
    if not isinstance(patterns, PatternSet):
        patterns = PatternSet(patterns)
    return patterns.digest(case_insensitive)


@dataclass
class CacheEntry:
    """One resident automaton plus its integrity vector."""

    digest: str
    dfa: DFA
    #: Per-row CRC32 of the STT at build time.  :meth:`verify`
    #: re-checks the table against it on every :meth:`AutomatonCache.get`,
    #: so a corrupted entry is evicted and rebuilt before anything reads
    #: its table.  The other row checks are ``EpochManager._verify`` and
    #: the REPRODFA load; a device bind takes no row CRCs — the device
    #: block-checksums its own copy of the gather arrays before every
    #: launch, so a consumer that reads only that copy bumps the entry
    #: with :meth:`AutomatonCache.touch` instead.
    row_checksums: np.ndarray
    case_insensitive: bool
    hits: int = 0

    def verify(self) -> None:
        """Re-checksum the cached STT against its build-time CRCs."""
        bad = verify_row_checksums(self.dfa.stt.table, self.row_checksums)
        if bad:
            raise IntegrityError(
                f"cached automaton {self.digest[:12]} corrupted: rows "
                f"{bad[:8]}" + ("..." if len(bad) > 8 else "")
                + " fail their CRC32 check"
            )


class AutomatonCache:
    """Bounded LRU of compiled automata, content-addressed.

    Parameters
    ----------
    capacity:
        Maximum resident entries; the least-recently-*used* entry is
        evicted when a build would exceed it.
    metrics:
        Optional :class:`~repro.obs.Metrics`; hits/misses/evictions
        update ``automaton_cache_{hits,misses,evictions}_total`` and
        the ``automaton_cache_entries`` gauge.
    tracer:
        Optional :class:`~repro.obs.Tracer`; every build records a
        ``cache_build`` span, every hit a ``cache_hit`` event.
    """

    def __init__(self, capacity: int = 8, *, metrics=None, tracer=None):
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        """True when *digest* is resident."""
        return digest in self._entries

    @property
    def digests(self) -> Tuple[str, ...]:
        """Resident digests, least-recently-used first."""
        return tuple(self._entries)

    def get(self, digest: str) -> Optional[CacheEntry]:
        """The verified entry for *digest*, or None.

        A host table is verified before anything reads it, so every hit
        is re-checked against the entry's build-time row CRCs — the
        cached STT must be byte-identical to a fresh build.  A corrupted
        entry (bit rot, a stray write) is **evicted, not raised**: the
        lookup degrades to a miss, so the caller's build path produces a
        fresh, correct automaton — self-healing instead of wedging every
        future request on that digest.
        """
        entry = self._entries.get(digest)
        if entry is None:
            return None
        try:
            entry.verify()
        except IntegrityError:
            del self._entries[digest]
            self.corrupt_evictions += 1
            self.metrics.counter(
                "automaton_cache_corrupt_evictions_total",
                "cache entries evicted after failing CRC verification",
            ).inc()
            self.tracer.event("cache_corrupt_evict", digest=digest[:12])
            self.metrics.gauge(
                "automaton_cache_entries", "resident cached automata"
            ).set(len(self._entries))
            return None
        self.touch(digest)
        return entry

    def touch(self, digest: str) -> bool:
        """A :meth:`get` hit without the row-CRC pass; False if absent.

        For a consumer that reads no host table, such as a scheduler
        batch that gathers through the device copy it bound from this
        entry.  The LRU order, hit counters, metric and ``cache_hit``
        event move as on a :meth:`get` hit.
        """
        entry = self._entries.get(digest)
        if entry is None:
            return False
        self._entries.move_to_end(digest)
        entry.hits += 1
        self.hits += 1
        self.metrics.counter(
            "automaton_cache_hits_total", "automaton cache hits"
        ).inc()
        self.tracer.event("cache_hit", digest=digest[:12])
        return True

    def get_or_build(
        self,
        patterns: Union[Sequence, PatternSet],
        *,
        case_insensitive: bool = False,
    ) -> Tuple[CacheEntry, bool]:
        """``(entry, was_hit)`` for a dictionary, building on miss.

        The build path folds the dictionary exactly as
        :class:`~repro.matcher.Matcher` does, runs ``DFA.build`` and the
        STT row checksums, and inserts the entry (evicting the LRU entry
        when over capacity), so a hit and a fresh build are
        byte-identical by construction — the cache-fuzz test pins this.
        It builds no gather table: a device bind fuses its own copy from
        the dense STT these checksums cover, and a CPU scan builds (and
        memoizes on the DFA) the backend's table on its first read.
        """
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        digest = patterns.digest(case_insensitive)
        entry = self.get(digest)
        if entry is not None:
            return entry, True
        self.misses += 1
        self.metrics.counter(
            "automaton_cache_misses_total", "automaton cache misses"
        ).inc()
        if case_insensitive:
            patterns = PatternSet.from_bytes(
                [p.lower() for p in patterns.as_bytes_list()]
            )
        with self.tracer.span(
            "cache_build",
            digest=digest[:12],
            n_patterns=len(patterns),
        ) as sp:
            dfa = DFA.build(patterns)
            entry = CacheEntry(
                digest=digest,
                dfa=dfa,
                row_checksums=stt_row_checksums(dfa.stt),
                case_insensitive=case_insensitive,
            )
            sp.set(n_states=dfa.n_states)
        self._entries[digest] = entry
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            self.metrics.counter(
                "automaton_cache_evictions_total", "automaton cache evictions"
            ).inc()
            self.tracer.event("cache_evict", digest=evicted[:12])
        self.metrics.gauge(
            "automaton_cache_entries", "resident cached automata"
        ).set(len(self._entries))
        return entry, False

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self.metrics.gauge(
            "automaton_cache_entries", "resident cached automata"
        ).set(0)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """The cache block of :func:`repro.obs.slo.statusz`."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "corrupt_evictions": self.corrupt_evictions,
        }
