"""DFA form of the AC machine (paper Section II, Fig. 2/3, Section IV-B-1).

The DFA replaces the goto+failure pair with a single next-move function
δ(s, a) precomputed for every (state, byte): the machine makes *exactly
one* state transition per input character, the property the paper's GPU
kernels depend on (one texture fetch per byte, no data-dependent loop).

Construction walks the trie breadth-first: a state's δ row is its
failure state's δ row (already final, because failure targets are
strictly shallower) overwritten with the state's own trie edges.  The
row copy is a single vectorized NumPy assignment, so building even a
20,000-pattern / 10^5-state table stays fast in pure Python.

The per-state output sets are flattened to a CSR-like (offsets, ids)
pair so the vectorized matchers can gather pattern ids for an array of
matched states without touching Python lists.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.alphabet import (
    ALPHABET_SIZE,
    MATCH_COLUMN,
    STATE_DTYPE,
    STT_COLUMNS,
)
from repro.core.automaton import AhoCorasickAutomaton
from repro.core.pattern_set import PatternSet
from repro.core.stt import STT
from repro.core.trie import ROOT


class DFA:
    """Deterministic AC machine: dense STT plus output mapping.

    Attributes
    ----------
    stt:
        The dense :class:`~repro.core.stt.STT` (what the paper uploads
        to texture memory).
    out_offsets, out_ids:
        CSR encoding of the output function: the pattern ids emitted on
        entering state ``s`` are ``out_ids[out_offsets[s]:out_offsets[s+1]]``.
    pattern_lengths:
        ``pattern_lengths[pid]`` — used to convert match end positions
        to start positions for chunk-ownership filtering.
    patterns:
        The dictionary this DFA recognizes.
    """

    __slots__ = (
        "stt",
        "out_offsets",
        "out_ids",
        "pattern_lengths",
        "patterns",
        "_compact",
        "_backends",
        "_fused_dense",
        "_digest",
        # Weak-referenceable so cache-eviction tests (and diagnostics)
        # can observe that an evicted automaton — and with it every
        # memoized gather/fused table it owns — was actually freed.
        "__weakref__",
    )

    def __init__(
        self,
        stt: STT,
        out_offsets: np.ndarray,
        out_ids: np.ndarray,
        patterns: PatternSet,
    ) -> None:
        self.stt = stt
        self.out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
        self.out_ids = np.ascontiguousarray(out_ids, dtype=np.int64)
        self.pattern_lengths = patterns.lengths()
        self.patterns = patterns
        self._compact = None
        self._backends = {}
        self._fused_dense = {}
        self._digest = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_automaton(cls, ac: AhoCorasickAutomaton) -> "DFA":
        """Convert an AC automaton into DFA/STT form."""
        n = ac.n_states
        table = np.empty((n, STT_COLUMNS), dtype=STATE_DTYPE)

        # Root row: self-loop on every symbol, overwritten by root edges.
        table[ROOT, :ALPHABET_SIZE] = ROOT
        for byte, child in ac.trie.children[ROOT].items():
            table[ROOT, byte] = child

        # BFS order guarantees table[fail[s]] is final before s is built.
        for state in ac.trie.bfs_order():
            table[state, :ALPHABET_SIZE] = table[ac.fail[state], :ALPHABET_SIZE]
            kids = ac.trie.children[state]
            if kids:
                cols = np.fromiter(kids.keys(), dtype=np.int64, count=len(kids))
                vals = np.fromiter(kids.values(), dtype=STATE_DTYPE, count=len(kids))
                table[state, cols] = vals

        # Match-flag column (paper's "M" column).
        flags = np.fromiter(
            (1 if ac.outputs[s] else 0 for s in range(n)), dtype=STATE_DTYPE, count=n
        )
        table[:, MATCH_COLUMN] = flags

        # CSR-flatten the output function.
        counts = np.fromiter(
            (len(ac.outputs[s]) for s in range(n)), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        ids = np.empty(int(offsets[-1]), dtype=np.int64)
        pos = 0
        for s in range(n):
            o = ac.outputs[s]
            ids[pos : pos + len(o)] = o
            pos += len(o)

        return cls(STT(table), offsets, ids, ac.patterns)

    @classmethod
    def build(cls, patterns: PatternSet) -> "DFA":
        """One-shot phase 1: patterns -> automaton -> DFA."""
        return cls.from_automaton(AhoCorasickAutomaton.build(patterns))

    # -- queries --------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of DFA states."""
        return self.stt.n_states

    def delta(self, state: int, byte: int) -> int:
        """Next-move function δ(state, byte) — a single table lookup."""
        return int(self.stt.table[state, byte])

    def is_match_state(self, state: int) -> bool:
        """True when entering *state* emits at least one pattern."""
        return bool(self.stt.table[state, MATCH_COLUMN])

    def compact_stt(self):
        """The alphabet-compacted transition table, built once and cached.

        See :mod:`repro.core.compact` — exactly equivalent to the dense
        STT (``C[s, class_of[b]] == δ(s, b)`` for all state/byte pairs)
        with a working set proportional to the bytes the dictionary
        actually uses.  The tiled engine gathers through this by
        default.
        """
        if self._compact is None:
            from repro.core.compact import CompactSTT

            self._compact = CompactSTT.from_dfa(self)
        return self._compact

    def gather_table(self, stt_backend: str):
        """The gather table/adapter for a named STT backend, memoized.

        ``dense`` returns ``None`` (the kernels gather through
        :meth:`dense_fused_tables`), ``compact`` the cached
        :meth:`compact_stt`; ``banded`` and ``bitmap`` build their
        compressed table once per DFA and cache the adapter (see
        :mod:`repro.compress.backend`).  Every backend realizes the
        same transition function exactly — they differ only in modeled
        fetch cost and footprint.
        """
        from repro.compress.backend import build_gather_table, resolve_backend

        name = resolve_backend(stt_backend)
        if name not in self._backends:
            self._backends[name] = build_gather_table(self, name)
        return self._backends[name]

    def dense_fused_tables(self, dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-major fused gather tables for the dense STT, cached.

        Returns ``(col_flat, cls_lut, flag_flat)`` where

        * ``col_flat[c * n_states + s] == δ(s, c)`` — the transition
          block transposed and flattened in *dtype*, so a whole symbol
          class is contiguous;
        * ``cls_lut[b] == b * n_states`` (int64) — the byte→column
          base-offset LUT, pre-scaled so the per-step index is a single
          add (``cls_lut[byte] + state``) with no multiply;
        * ``flag_flat[i] == (δ-target at i is a match state)`` — the
          match flag of ``col_flat[i]``, index-aligned with it so the
          step's match test rides the same fused index.

        Cached per dtype because tests monkeypatch the uint16 cutoff.
        """
        key = np.dtype(dtype).str
        cached = self._fused_dense.get(key)
        if cached is None:
            nxt = self.stt.next_states  # (n_states, 256) read-only view
            col = np.ascontiguousarray(nxt.T, dtype=dtype)
            col_flat = col.reshape(-1)
            col_flat.setflags(write=False)
            cls_lut = np.arange(ALPHABET_SIZE, dtype=np.int64) * np.int64(
                self.n_states
            )
            cls_lut.setflags(write=False)
            flags = np.asarray(self.stt.match_flags) != 0
            flag_flat = np.ascontiguousarray(flags[nxt.T]).reshape(-1)
            flag_flat.setflags(write=False)
            cached = (col_flat, cls_lut, flag_flat)
            self._fused_dense[key] = cached
        return cached

    def content_digest(self) -> str:
        """Hex digest of the pattern set this DFA was built from, cached.

        The DFA (states, transitions, outputs) is a deterministic
        function of its pattern list, so the digest identifies the
        whole machine — the simulation segment cache
        (:mod:`repro.kernels.segcache`) keys on it instead of holding
        a reference that would pin the DFA in memory.
        """
        if self._digest is None:
            import hashlib

            h = hashlib.sha256()
            blobs = self.patterns.as_bytes_list()
            h.update(len(blobs).to_bytes(8, "little"))
            for blob in blobs:
                h.update(len(blob).to_bytes(8, "little"))
                h.update(blob)
            self._digest = h.hexdigest()
        return self._digest

    def outputs_of(self, state: int) -> np.ndarray:
        """Pattern ids emitted on entering *state* (possibly empty)."""
        return self.out_ids[self.out_offsets[state] : self.out_offsets[state + 1]]

    def gather_matches(
        self, positions: np.ndarray, states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand (position, matched-state) pairs into (end, pattern_id).

        A state can emit several patterns ("she" also emits "he"); this
        performs the CSR expansion fully vectorized: each input pair is
        repeated by its output count, then the flat ids are gathered
        with a cumulative-offset trick.

        Parameters
        ----------
        positions, states:
            Equal-length 1-D arrays of match end positions and the DFA
            state entered at each such position.

        Returns
        -------
        (ends, pattern_ids):
            int64 arrays, one entry per emitted occurrence.
        """
        positions = np.asarray(positions, dtype=np.int64)
        states = np.asarray(states, dtype=np.int64)
        starts = self.out_offsets[states]
        counts = self.out_offsets[states + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        ends = np.repeat(positions, counts)
        # Index into out_ids: for pair k with count c_k, the gathered
        # indices are starts[k], starts[k]+1, ..., starts[k]+c_k-1.
        cum = np.cumsum(counts)
        idx = np.arange(total, dtype=np.int64)
        idx -= np.repeat(cum - counts, counts)
        idx += np.repeat(starts, counts)
        return ends, self.out_ids[idx]

    def verify_against_automaton(self, ac: AhoCorasickAutomaton) -> bool:
        """Exhaustively check δ(s, a) == ac.step(s, a) for all s, a.

        O(n_states × 256); used by tests on small dictionaries.
        """
        table = self.stt.table
        for s in range(self.n_states):
            for a in range(ALPHABET_SIZE):
                if int(table[s, a]) != ac.step(s, a):
                    return False
        return True


def build_dfa(patterns: List[str]) -> DFA:
    """Convenience: build a DFA straight from a list of ``str`` patterns."""
    return DFA.build(PatternSet.from_strings(patterns))
