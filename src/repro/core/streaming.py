"""Streaming (incremental) matcher — scan data as it arrives.

The paper's NIDS scenario is inherently streaming: packets arrive one
at a time, and a match may straddle two feeds.  The DFA makes this
trivial to support exactly — the machine's *state* is the only carry —
so :class:`StreamMatcher` lets callers feed arbitrary byte chunks and
receive matches with global positions, with occurrences spanning feed
boundaries found exactly once (property-tested against a whole-input
scan).

Large feeds run through the chunk-parallel tiled engine with the
carried DFA state seeded into the first lane (matches straddling the
carry boundary belong to that lane unconditionally); small feeds walk
the state sequence in a tight scalar loop but extract matches
vectorized.  Either way, per-feed overhead stays proportional to the
feed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.alphabet import BytesLike, encode
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.trie import ROOT

#: Feeds at least this large go through the chunk-parallel tiled path.
VECTOR_THRESHOLD = 1024

#: Chunk length for the parallel path (lockstep lanes per feed).
PARALLEL_CHUNK = 4096


class StreamMatcher:
    """Stateful incremental AC matcher over one logical byte stream.

    Examples
    --------
    >>> from repro.core import DFA, PatternSet
    >>> m = StreamMatcher(DFA.build(PatternSet.from_strings(["hers"])))
    >>> m.feed(b"ush")
    []
    >>> m.feed(b"ers")   # match straddles the feeds, found once
    [(5, 0)]
    """

    __slots__ = ("dfa", "_state", "_position", "_total_matches")

    def __init__(self, dfa: DFA):
        self.dfa = dfa
        self._state = ROOT
        self._position = 0
        self._total_matches = 0

    # -- introspection ------------------------------------------------------
    @property
    def position(self) -> int:
        """Bytes consumed so far."""
        return self._position

    @property
    def state(self) -> int:
        """Current DFA state (the entire carry between feeds)."""
        return self._state

    @property
    def total_matches(self) -> int:
        """Occurrences reported since construction/reset."""
        return self._total_matches

    def reset(self) -> None:
        """Forget all stream context (new logical stream)."""
        self._state = ROOT
        self._position = 0
        self._total_matches = 0

    # -- feeding -----------------------------------------------------------
    def feed(self, data: BytesLike) -> List[Tuple[int, int]]:
        """Consume *data*; return new ``(end, pattern_id)`` matches.

        End positions are global stream offsets.  Matches are returned
        in canonical (end, id) order.
        """
        arr = encode(data, name="data")
        if arr.size == 0:
            return []
        if arr.size >= VECTOR_THRESHOLD:
            out = self._feed_parallel(arr)
        else:
            out = self._feed_small(arr)
        self._position += int(arr.size)
        self._total_matches += len(out)
        return out

    def feed_result(self, data: BytesLike) -> MatchResult:
        """Like :meth:`feed` but returns a :class:`MatchResult`."""
        return MatchResult.from_pairs(self.feed(data))

    def _feed_small(self, arr: np.ndarray) -> List[Tuple[int, int]]:
        """Small-feed path: scalar state walk, vectorized extraction.

        The DFA walk is inherently sequential; for feeds too small to
        amortize lockstep lanes the states are computed in a tight loop
        over a pre-converted list (no NumPy scalar boxing), then
        flags/outputs are gathered vectorized — no per-byte Python
        match bookkeeping.  Under ``REPRO_JIT=1`` the walk runs the
        compiled ``scalar_walk`` kernel instead (identical states,
        pinned by ``tests/core/test_jit.py``).
        """
        from repro.core.jit import jit_kernels

        table = self.dfa.stt.next_states
        states_seq = np.empty(arr.size, dtype=np.int64)
        kernels = jit_kernels()
        if kernels is not None:
            self._state = int(
                kernels["scalar_walk"](table, self._state, arr, states_seq)
            )
        else:
            # Plain-int loop: ~10x faster than ndarray scalar indexing.
            t = table  # local
            state = self._state
            data_list = arr.tolist()
            for i, byte in enumerate(data_list):
                state = int(t[state, byte])
                states_seq[i] = state
            self._state = state

        flags = self.dfa.stt.match_flags
        hit = np.flatnonzero(flags[states_seq] != 0)
        if hit.size == 0:
            return []
        ends = hit + self._position
        ends_exp, pids_exp = self.dfa.gather_matches(ends, states_seq[hit])
        pairs = sorted(zip(ends_exp.tolist(), pids_exp.tolist()))
        return pairs

    def _feed_parallel(self, arr: np.ndarray) -> List[Tuple[int, int]]:
        """Large-feed path: chunk-parallel tiled scan with a state seam.

        The carried DFA state is seeded into lane 0 (all other lanes
        start at the root as usual), so a match straddling the feed
        boundary completes inside lane 0's window — its start predates
        this feed, which is why lane 0's ownership has no lower bound.
        The carry-out state is recomputed with a short scalar walk over
        the feed's tail: the stream state is the longest input suffix
        that is a trie node, and that suffix is shorter than the
        longest pattern, so walking the last ``max_length`` bytes from
        the root reproduces it exactly.
        """
        from repro.core.chunking import plan_chunks, required_overlap
        from repro.core.tiled import iter_dfa_tiles

        dfa = self.dfa
        n = int(arr.size)
        base = self._position
        max_len = int(dfa.patterns.max_length)
        plan = plan_chunks(n, PARALLEL_CHUNK, required_overlap(max_len))
        init = np.zeros(plan.n_chunks, dtype=np.int64)
        init[0] = self._state

        flags = dfa.stt.match_flags
        offs = dfa.out_offsets
        lengths = dfa.pattern_lengths
        ends_parts: List[np.ndarray] = []
        pids_parts: List[np.ndarray] = []
        for tile in iter_dfa_tiles(dfa, arr, plan, init_states=init):
            hit = (flags[tile.states_after] != 0) & tile.valid
            j_idx, t_idx = np.nonzero(hit)
            if j_idx.size == 0:
                continue
            ends = plan.starts[t_idx] + j_idx + tile.j0
            states = tile.states_after[j_idx, t_idx].astype(np.int64)
            exp_ends, exp_pids = dfa.gather_matches(ends, states)
            counts = offs[states + 1] - offs[states]
            exp_threads = np.repeat(t_idx, counts)
            # Ownership: start inside the lane's owned chunk, except
            # lane 0, which also owns starts predating the feed.
            starts_of_match = exp_ends - lengths[exp_pids] + 1
            own = (
                (
                    (starts_of_match >= plan.starts[exp_threads])
                    | (exp_threads == 0)
                )
                & (starts_of_match < plan.owned_ends[exp_threads])
                & (exp_ends < n)
            )
            ends_parts.append(exp_ends[own])
            pids_parts.append(exp_pids[own])

        # Carry-out: walk the tail scalar (≤ max_len steps).
        t = dfa.stt.next_states
        if n >= max_len:
            state = ROOT
            tail = arr[n - max_len :]
        else:
            state = self._state
            tail = arr
        for byte in tail.tolist():
            state = int(t[state, byte])
        self._state = state

        if not ends_parts:
            return []
        all_ends = np.concatenate(ends_parts) + base
        all_pids = np.concatenate(pids_parts)
        return sorted(zip(all_ends.tolist(), all_pids.tolist()))


def scan_stream(dfa: DFA, feeds) -> MatchResult:
    """Scan an iterable of byte chunks as one logical stream."""
    matcher = StreamMatcher(dfa)
    parts: List[Tuple[int, int]] = []
    for feed in feeds:
        parts.extend(matcher.feed(feed))
    return MatchResult.from_pairs(parts)
