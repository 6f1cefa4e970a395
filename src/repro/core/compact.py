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
PFAC walks the same table (a transition is a failureless-trie edge
exactly when it lands one trie depth deeper), so an unused byte's
root target kills every PFAC thread too.

The compacted table is ``(n_states, n_used + 1)`` instead of
``(n_states, 257)`` — for English dictionaries a ~4.8× smaller working
set, which is what makes the tiled scan's δ-gather cache-resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


def compact_columns(dense: np.ndarray, cmap: ByteClassMap) -> np.ndarray:
    """Project a dense ``(n_states, 256)`` DFA table onto *cmap*'s classes.

    Column 0 (the other class) is ``ROOT``: every unused byte sends
    every state to the root (see the module docstring);
    :meth:`CompactSTT.verify_against` checks it exhaustively.
    """
    if dense.ndim != 2 or dense.shape[1] < ALPHABET_SIZE:
        raise ReproError(
            f"dense table must be (n_states, >= {ALPHABET_SIZE}); "
            f"got {dense.shape}"
        )
    n_states = dense.shape[0]
    table = np.empty((n_states, cmap.n_classes), dtype=STATE_DTYPE)
    table[:, 0] = ROOT
    if cmap.used.size:
        table[:, 1:] = dense[:, cmap.used]
    return np.ascontiguousarray(table)


#: Rows of the source table :func:`fuse_columns` transposes per step.
_FUSE_BLOCK_ROWS = 1024


def fuse_columns(
    table: np.ndarray,
    match_flags: np.ndarray,
    dtype,
    byte_class: Optional[np.ndarray] = None,
    used: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(col_flat, cls_lut, flag_flat)`` over an ``(n_states, k)`` table.

    The fused column-major gather tables
    :meth:`repro.core.tiled.GatherKernel.step_fused` reads:

    * ``col_flat[c * n_states + s]`` — column ``c`` of the fused table
      at state ``s``, in *dtype*, so a whole column is contiguous.  The
      columns are *table*'s own, or, given *used* (the sorted used
      bytes of a :class:`ByteClassMap`), the alphabet compaction of a
      dense *table*: column 0 all ``ROOT`` (the other class) and column
      ``c`` the dense column of byte ``used[c - 1]``;
    * ``cls_lut[b] == byte_class[b] * n_states`` (int64; *byte_class*
      defaults to the identity, the dense table's columns) — the
      byte→column base offset, pre-scaled so the per-step index is a
      single add (``cls_lut[byte] + state``) with no multiply;
    * ``flag_flat[i]`` — the match flag of the state ``col_flat[i]``
      names, index-aligned so the step's match test rides the same
      fused index.

    Both arrays are filled one block of source rows at a time, so
    nothing the size of the result is allocated on the way: no
    compacted row-major table, no int64 copy of ``col_flat``.

    The one builder of these arrays: the DFA's and the
    :class:`CompactSTT`'s memos freeze and keep what it returns, and a
    device binding owns a fresh, writable set built straight from the
    dense STT (:func:`repro.compress.backend.device_gather_table`).
    """
    n_states = table.shape[0]
    if byte_class is None:
        byte_class = np.arange(ALPHABET_SIZE, dtype=np.int64)
    first = 0 if used is None else 1
    n_cols = table.shape[1] if used is None else used.size + 1
    flags = np.asarray(match_flags) != 0
    col_flat = np.empty(n_cols * n_states, dtype=dtype)
    flag_flat = np.empty(col_flat.size, dtype=bool)
    cols = col_flat.reshape(n_cols, n_states)
    col_flags = flag_flat.reshape(n_cols, n_states)
    if used is not None:
        cols[0] = ROOT
        col_flags[0] = flags[ROOT]
    for r0 in range(0, n_states, _FUSE_BLOCK_ROWS):
        r1 = min(r0 + _FUSE_BLOCK_ROWS, n_states)
        block = table[r0:r1] if used is None else table[r0:r1, used]
        cols[first:, r0:r1] = block.T
        col_flags[first:, r0:r1] = flags[block.T]
    cls_lut = byte_class * np.int64(n_states)
    return col_flat, cls_lut, flag_flat


class CompactSTT:
    """Alphabet-compacted view of a DFA's transition function.

    ``table[s, class_of[b]] == stt.next_states[s, b]`` for every state
    and byte — the gather through this table is byte-for-byte the same
    automaton, just with a cache-resident footprint.
    """

    __slots__ = ("class_map", "table", "_fused")

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
        self._fused = {}

    def fused_tables(self, match_flags: np.ndarray, dtype):
        """Column-major fused gather tables for the compacted STT, cached.

        :func:`fuse_columns` of the compacted table, with the
        byte→offset LUT composed through the class map:
        ``cls_lut[b] == class_of[b] * n_states``, so
        ``col_flat[cls_lut[b] + s] == table[s, class_of[b]] == δ(s, b)``.
        Cached per dtype (tests monkeypatch the uint16 cutoff); the
        CPU scans gather through this memo, a gpu launch through its
        device's own copy.
        """
        key = np.dtype(dtype).str
        cached = self._fused.get(key)
        if cached is None:
            cached = fuse_columns(self.table, match_flags, dtype, self.class_of)
            for arr in cached:
                arr.setflags(write=False)
            self._fused[key] = cached
        return cached

    @classmethod
    def from_dfa(cls, dfa) -> "CompactSTT":
        """Build the compacted table for a DFA (other class → ROOT)."""
        cmap = ByteClassMap.from_patterns(dfa.patterns)
        table = compact_columns(dfa.stt.next_states, cmap)
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
