"""DFA form of the AC machine (paper Section II, Fig. 2/3, Section IV-B-1).

The DFA replaces the goto+failure pair with a single next-move function
δ(s, a) precomputed for every (state, byte): the machine makes *exactly
one* state transition per input character, the property the paper's GPU
kernels depend on (one texture fetch per byte, no data-dependent loop).

Construction goes one trie depth at a time (:meth:`DFA.build`): a
state's δ row is its failure state's δ row (already final, because
failure targets are strictly shallower) overwritten with the state's
own trie edges, so each depth's rows are one NumPy gather and scatter
and the paper's 20,000-pattern / 10^5-state table builds in about
0.15 s on a 2-vCPU host.  :meth:`DFA.from_automaton` converts the
dict-per-state automaton the same way, one state at a time; it is the
reference.

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
from repro.core.compact import fuse_columns
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
        "_depths",
        "_backends",
        "_fused_dense",
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
        self._depths = None
        self._backends = {}
        self._fused_dense = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_automaton(cls, ac: AhoCorasickAutomaton) -> "DFA":
        """Convert an AC automaton into DFA/STT form.

        The reference construction: a breadth-first walk of the
        automaton's dict-per-state trie.  :meth:`build` must produce
        byte-identical arrays (the tests compare them).
        """
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
        """One-shot phase 1: patterns -> DFA, one trie depth at a time.

        The serving layer builds every automaton here: each cache
        entry, and each rule version the epoch manager registers, swaps
        in or rolls back to (:class:`~repro.core.delta.DeltaBuilder`,
        which adds the row checksums).  Yields exactly the arrays of
        ``from_automaton(AhoCorasickAutomaton.build(patterns))`` —
        same STT bytes, output CSR and state numbering — without the
        dict-per-state trie.  Three loops over the depths 1..max_len:

        1. *Trie.*  The patterns still alive at depth ``d`` (length
           >= d, ascending id) key their next state by ``(state at
           d-1, d-th byte)``; one ``np.unique`` makes the depth's
           states, and its first-occurrence index names the lowest
           pattern id reaching each.  ``Trie._insert`` numbers states
           in insertion order, so a state's id is 1 + the rank of
           (that first pattern id, depth): the states a pattern adds
           are consecutive, ending at the running total of states
           added by patterns up to it.
        2. *Rows.*  A depth-``d`` state fails to δ(fail(parent), byte)
           (depth-1 states to the root) and its row is its failure
           state's row — strictly shallower, hence already final —
           which its children's edges then overwrite.  One gather and
           one scatter per depth.
        3. *Outputs.*  A state emits its own pattern id, then its
           failure state's list (the order the automaton's
           ``outputs[child].extend(outputs[fail[child]])`` makes), so
           counts follow the depths, offsets are one cumsum in id
           order, and each depth's lists are one segmented gather.

        Memory is O(total pattern bytes + table): the per-depth keys
        read the concatenated patterns, never a padded matrix.  Each
        depth costs a constant number of NumPy calls plus work
        proportional to the patterns alive at it, so one very long
        pattern pays that constant once per byte: 1,000 short patterns
        plus one of 8 KiB build in about 0.4 s, against 0.15 s through
        the automaton (2-vCPU host).
        """
        lengths = patterns.lengths()
        flat = np.concatenate(tuple(patterns))
        starts = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])

        # 1. Trie.  Per depth: each state's parent (index into the
        # previous depth's states), byte, first pattern id, and own
        # pattern id (-1 when no pattern ends there; a PatternSet has
        # no duplicates, so at most one does).
        levels = []
        added = np.zeros(lengths.size, dtype=np.int64)
        alive = np.arange(lengths.size, dtype=np.int64)
        node = np.zeros(lengths.size, dtype=np.int64)
        for d in range(patterns.max_length):
            key = node << 8
            key |= flat[starts[alive] + d]
            uniq, first, node = np.unique(
                key, return_index=True, return_inverse=True
            )
            first = alive[first]
            added[first] += 1
            ends = lengths[alive] == d + 1
            own = np.full(uniq.size, -1, dtype=np.int64)
            own[node[ends]] = alive[ends]
            levels.append((uniq >> 8, uniq & 0xFF, first, own))
            keep = ~ends
            alive = alive[keep]
            node = node[keep]
        # Pattern p's states end at id cumsum(added)[p], at its length.
        base = np.cumsum(added) - lengths

        # 2. Rows, failure links and output counts.
        n = 1 + int(added.sum())
        table = np.empty((n, STT_COLUMNS), dtype=STATE_DTYPE)
        table[ROOT] = ROOT
        count = np.zeros(n, dtype=np.int64)
        ids = np.zeros(1, dtype=np.int64)  # depth 0: the root
        states = []
        for depth, (parent, byte, first, own) in enumerate(levels, 1):
            kid = base[first] + depth
            table[ids[parent], byte] = kid  # the parents' rows are final
            if depth == 1:
                fail = np.zeros(kid.size, dtype=np.int64)
            else:
                fail = table[fail[parent], byte]
            table[kid] = table[fail]
            count[kid] = count[fail] + (own >= 0)
            ids = kid
            states.append((kid, fail, own))
        table[:, MATCH_COLUMN] = count > 0

        # 3. Output lists: own id first, then the failure state's list.
        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(count, out=out_offsets[1:])
        out_ids = np.empty(int(out_offsets[-1]), dtype=np.int64)
        for kid, fail, own in states:
            dst = out_offsets[kid]
            has = own >= 0
            out_ids[dst[has]] = own[has]
            lens = count[fail]
            sel = np.flatnonzero(lens)
            if sel.size:
                lens = lens[sel]
                src = out_offsets[fail[sel]]
                i = np.arange(int(lens.sum()), dtype=np.int64)
                i += np.repeat(src - (np.cumsum(lens) - lens), lens)
                out_ids[i + np.repeat(dst[sel] + has[sel] - src, lens)] = out_ids[i]

        return cls(STT(table), out_offsets, out_ids, patterns)

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
        actually uses.  The CPU scans gather through this by default;
        a gpu bind reads the dense STT instead (see
        :func:`~repro.compress.backend.device_gather_table`).
        """
        if self._compact is None:
            from repro.core.compact import CompactSTT

            self._compact = CompactSTT.from_dfa(self)
        return self._compact

    def state_depths(self) -> np.ndarray:
        """Each state's trie depth (its label's length), built once and cached.

        One breadth-first walk of the compacted table from the root:
        the states first reached at level ``d`` are exactly the depth-d
        states.  A state of depth ``d`` is entered only by inputs whose
        longest trie-prefix suffix is its own ``d``-byte label, so no
        shorter path reaches it; and each row's unvisited targets are
        precisely its trie children, so every level is one gather.
        Computed from the table alone, the memo is the same however
        the DFA was made (:meth:`build`, :meth:`from_automaton` or a
        REPRODFA load).  PFAC reads it: δ(s, b) is a failureless-trie
        edge exactly when it lands one depth deeper than ``s``.
        """
        if self._depths is None:
            table = self.compact_stt().table
            depths = np.full(self.n_states, -1, dtype=np.int64)
            depths[ROOT] = 0
            level = np.array([ROOT])
            d = 0
            while level.size:
                d += 1
                targets = table[level].ravel()
                level = targets[depths[targets] < 0]
                depths[level] = d
            depths.setflags(write=False)
            self._depths = depths
        return self._depths

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

        :func:`~repro.core.compact.fuse_columns` of the transition
        block: ``col_flat[c * n_states + s] == δ(s, c)`` in *dtype*,
        ``cls_lut[b] == b * n_states`` (int64) and ``flag_flat[i]`` the
        match flag of ``col_flat[i]``'s target.  Cached per dtype
        because tests monkeypatch the uint16 cutoff; the CPU scans
        gather through this memo, a gpu launch through its device's own
        copy.
        """
        key = np.dtype(dtype).str
        cached = self._fused_dense.get(key)
        if cached is None:
            cached = fuse_columns(
                self.stt.next_states, self.stt.match_flags, dtype
            )
            for arr in cached:
                arr.setflags(write=False)
            self._fused_dense[key] = cached
        return cached

    def outputs_of(self, state: int) -> np.ndarray:
        """Pattern ids emitted on entering *state* (possibly empty)."""
        return self.out_ids[self.out_offsets[state] : self.out_offsets[state + 1]]

    def expand_outputs(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR expansion of matched states into emitted pattern ids.

        A state can emit several patterns ("she" also emits "he").  Each
        state's output count is looked up once; the state's index is
        repeated by it, and the flat ids are gathered with a
        cumulative-offset trick.

        Returns
        -------
        (source, pattern_ids):
            int64 arrays, one entry per emitted occurrence, in input
            order: ``source[i]`` is the index into *states* of the
            state that emitted ``pattern_ids[i]``.
        """
        states = np.asarray(states, dtype=np.int64)
        starts = np.take(self.out_offsets, states)
        counts = np.take(self.out_offsets, states + 1) - starts
        total = int(counts.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        source = np.repeat(np.arange(states.size, dtype=np.int64), counts)
        # Index into out_ids: for state k with count c_k, the gathered
        # indices are starts[k], starts[k]+1, ..., starts[k]+c_k-1.
        starts -= np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64)
        idx += np.take(starts, source)
        return source, np.take(self.out_ids, idx)

    def gather_matches(
        self, positions: np.ndarray, states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand (position, matched-state) pairs into (end, pattern_id).

        Parameters
        ----------
        positions, states:
            Equal-length 1-D arrays of match end positions and the DFA
            state entered at each such position.

        Returns
        -------
        (ends, pattern_ids):
            int64 arrays, one entry per emitted occurrence, from
            :meth:`expand_outputs`.
        """
        source, pattern_ids = self.expand_outputs(states)
        return np.asarray(positions, dtype=np.int64)[source], pattern_ids

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
