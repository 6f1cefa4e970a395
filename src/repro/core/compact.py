"""Alphabet-compacted transition tables (byte→class LUT fast path).

Real pattern dictionaries touch a small slice of the 256-byte alphabet
(the paper's dictionaries are English words: ~52 distinct bytes), yet
the dense STT spends a 257-entry row on every state.  Bellekens et
al.'s memory-compression study (PAPERS.md) shows that shrinking the
*active* transition table is the dominant throughput lever for AC on
wide alphabets, because the table stops fitting in cache long before
the state count becomes a problem.

This module builds the simplest compaction with an exact equivalence
proof: a 256-entry byte→class LUT over the bytes that actually occur
in the pattern set, plus a single catch-all "other" class.

Equivalence argument (property-tested in ``tests/core/test_compact.py``):
a byte ``b`` that appears in **no** pattern can never extend a pattern
prefix, so for the AC DFA ``δ(s, b) = ROOT`` for *every* state ``s``
(the failure chain bottoms out at the root, whose ``b`` edge is the
self-loop).  All unused bytes therefore share one identical STT column
and can be merged into a single class whose compacted column is
all-ROOT.  Used bytes keep their own class, so the compacted table
``C[s, class_of[b]] == STT[s, b]`` holds for all ``(s, b)`` exactly.
The same construction applies to PFAC's failureless trie with the
"other" column equal to ``DEAD`` (an unused byte kills every thread).

The compacted table is ``(n_states, n_used + 1)`` instead of
``(n_states, 257)`` — for English dictionaries a ~4.8× smaller working
set, which is what makes the tiled scan's δ-gather cache-resident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.alphabet import ALPHABET_SIZE, STATE_DTYPE
from repro.core.pattern_set import PatternSet
from repro.core.trie import ROOT
from repro.errors import ReproError


def used_bytes(patterns: PatternSet) -> np.ndarray:
    """Sorted distinct byte values occurring in *patterns* (int64)."""
    blobs = patterns.as_bytes_list()
    joined = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return np.unique(joined).astype(np.int64)


@dataclass(frozen=True)
class ByteClassMap:
    """256-entry byte→class LUT.

    Class 0 is the catch-all "other" class (bytes outside the pattern
    alphabet); classes ``1..n_used`` are the used bytes in ascending
    byte order.  When all 256 bytes are used, the other class simply
    has no members (one harmless extra column).
    """

    class_of: np.ndarray  # (256,) int64, read-only
    used: np.ndarray  # sorted distinct used bytes, int64

    @property
    def n_classes(self) -> int:
        """Number of symbol classes (used bytes + the other class)."""
        return int(self.used.size) + 1

    @classmethod
    def from_patterns(cls, patterns: PatternSet) -> "ByteClassMap":
        used = used_bytes(patterns)
        class_of = np.zeros(ALPHABET_SIZE, dtype=np.int64)
        class_of[used] = np.arange(1, used.size + 1, dtype=np.int64)
        class_of.setflags(write=False)
        used.setflags(write=False)
        return cls(class_of=class_of, used=used)


def compact_columns(
    dense: np.ndarray, cmap: ByteClassMap, other_value: int
) -> np.ndarray:
    """Project a dense ``(n_states, 256)`` table onto *cmap*'s classes.

    Column 0 (the other class) is filled with *other_value* — ``ROOT``
    for the AC DFA, ``DEAD`` for PFAC's failureless trie.  The caller
    is responsible for *other_value* being the true shared next-state
    of every unused byte; :meth:`CompactSTT.verify_against` checks it
    exhaustively for the DFA case.
    """
    if dense.ndim != 2 or dense.shape[1] < ALPHABET_SIZE:
        raise ReproError(
            f"dense table must be (n_states, >= {ALPHABET_SIZE}); "
            f"got {dense.shape}"
        )
    n_states = dense.shape[0]
    table = np.empty((n_states, cmap.n_classes), dtype=STATE_DTYPE)
    table[:, 0] = other_value
    if cmap.used.size:
        table[:, 1:] = dense[:, cmap.used]
    return np.ascontiguousarray(table)


class CompactSTT:
    """Alphabet-compacted view of a DFA's transition function.

    ``table[s, class_of[b]] == stt.next_states[s, b]`` for every state
    and byte — the gather through this table is byte-for-byte the same
    automaton, just with a cache-resident footprint.
    """

    __slots__ = ("class_map", "table", "flat", "_fused")

    def __init__(self, class_map: ByteClassMap, table: np.ndarray):
        table = np.ascontiguousarray(table, dtype=STATE_DTYPE)
        if table.shape[1] != class_map.n_classes:
            raise ReproError(
                f"compact table has {table.shape[1]} columns; class map "
                f"defines {class_map.n_classes} classes"
            )
        table.setflags(write=False)
        self.class_map = class_map
        self.table = table
        # Row-major flat view (state * n_classes + class).
        self.flat = table.reshape(-1)
        self._fused = {}

    def fused_tables(self, match_flags: np.ndarray, dtype):
        """Column-major fused gather tables for the compacted STT, cached.

        Same contract as :meth:`repro.core.dfa.DFA.dense_fused_tables`,
        with the byte→offset LUT composed through the class map:
        ``cls_lut[b] == class_of[b] * n_states``, so
        ``col_flat[cls_lut[b] + s] == table[s, class_of[b]] == δ(s, b)``
        and ``flag_flat`` carries the target state's match flag at the
        same fused index.  Cached per dtype (tests monkeypatch the
        uint16 cutoff).
        """
        key = np.dtype(dtype).str
        cached = self._fused.get(key)
        if cached is None:
            col = np.ascontiguousarray(self.table.T, dtype=dtype)
            col_flat = col.reshape(-1)
            col_flat.setflags(write=False)
            cls_lut = self.class_map.class_of * np.int64(self.n_states)
            cls_lut.setflags(write=False)
            flags = np.asarray(match_flags) != 0
            flag_flat = np.ascontiguousarray(flags[self.table.T]).reshape(-1)
            flag_flat.setflags(write=False)
            cached = (col_flat, cls_lut, flag_flat)
            self._fused[key] = cached
        return cached

    @classmethod
    def from_dfa(cls, dfa) -> "CompactSTT":
        """Build the compacted table for a DFA (other class → ROOT)."""
        cmap = ByteClassMap.from_patterns(dfa.patterns)
        table = compact_columns(dfa.stt.next_states, cmap, ROOT)
        return cls(cmap, table)

    @property
    def n_states(self) -> int:
        """Number of DFA states (rows)."""
        return self.table.shape[0]

    @property
    def n_classes(self) -> int:
        """Number of symbol classes (columns)."""
        return self.table.shape[1]

    @property
    def class_of(self) -> np.ndarray:
        """The 256-entry byte→class LUT."""
        return self.class_map.class_of

    def next_states(self, states: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Vectorized δ over (state, input-byte) arrays."""
        states = np.asarray(states, dtype=np.int64)
        symbols = np.asarray(symbols, dtype=np.int64)
        return self.table[states, self.class_map.class_of[symbols]]

    def dense_bytes(self) -> int:
        """Footprint of the dense transition block this replaces."""
        return self.n_states * ALPHABET_SIZE * self.table.itemsize

    def compact_bytes(self) -> int:
        """Footprint of the compacted table."""
        return int(self.table.nbytes)

    def verify_against(self, dfa) -> bool:
        """Exhaustively check equivalence with the dense STT.

        O(n_states × 256) vectorized — cheap enough to run in tests on
        every Hypothesis-generated dictionary.
        """
        dense = dfa.stt.next_states
        gathered = self.table[:, self.class_map.class_of]  # (n_states, 256)
        return bool(np.array_equal(gathered, dense))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompactSTT(n_states={self.n_states}, "
            f"n_classes={self.n_classes}, "
            f"{self.compact_bytes() / self.dense_bytes():.2%} of dense)"
        )
