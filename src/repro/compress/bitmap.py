"""Bitmap/delta STT compression (extension; paper refs [18], [19]).

The second compression family Zha et al. use: store each state's row as
a *delta against its failure state's row*.  A DFA row is, by
construction, its failure row overwritten with the state's own trie
edges — typically a handful of columns — so the delta is tiny:

* ``bitmap[s]``  — 256-bit mask of columns where state ``s`` differs
  from ``fail(s)`` (for the root: differs from "go to root");
* ``packed[s]``  — the differing targets, in column order, indexed by
  popcount of the bitmap prefix.

Lookup walks the failure chain until a set bit is found (the root
terminates every walk).  The chain length is bounded by the state's
depth, and on real text the expected walk is short — but unlike
:class:`~repro.compress.banded.BandedSTT` it is *data-dependent*,
which is exactly the trade the compression bench prices: maximum
compression vs branch-free fetches.

Two lookup paths share one representation:

* :meth:`BitmapDeltaSTT.delta` — scalar, the readable reference;
* :meth:`BitmapDeltaSTT.next_states` — vectorized lockstep walk used
  by the ``bitmap`` STT backend (:mod:`repro.compress.backend`): all
  lanes advance their failure chains together, resolving lanes drop
  out, and the loop is *bounded by the trie depth*.  A lane that is
  still walking after ``depth(start_state)`` hops can only mean a
  corrupt failure function (a cycle, or a link to an equal-or-deeper
  state), so the walk raises instead of spinning — the bounded-walk
  assertion the fuzz suite (`tests/compress/test_bitmap_fuzz.py`)
  attacks with adversarial dictionaries.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.alphabet import ALPHABET_SIZE, STATE_DTYPE
from repro.core.automaton import AhoCorasickAutomaton
from repro.core.dfa import DFA
from repro.core.trie import ROOT
from repro.errors import IntegrityError, ReproError, SerializationError
from repro.compress.banded import CompressionStats
from repro.compress.blob import pack_arrays, unpack_arrays

#: Per-byte popcount lookup table (int64 so prefix sums never overflow).
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

#: Bit masks for the 8 in-byte positions.
_BIT = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)

#: Column index vector for prefix-byte masking (see :meth:`_rank`).
_COLS = np.arange(ALPHABET_SIZE // 8, dtype=np.int64)

#: Inner blob format tag (the REPRODFA section tag wraps this).
BITMAP_BLOB_FORMAT = "repro-ac/bitmap-stt/v1"


class BitmapDeltaSTT:
    """Failure-delta compressed STT.

    Build with :meth:`from_automaton` (the failure function is needed;
    the dense DFA alone does not retain it).
    """

    __slots__ = (
        "bitmaps",
        "offsets",
        "packed",
        "fail",
        "root_row",
        "depth",
        "_dense_bytes",
        "_max_depth",
    )

    def __init__(self, bitmaps, offsets, packed, fail, root_row, depth, dense_bytes):
        self.bitmaps = bitmaps  # (n_states, 32) uint8 — 256-bit delta masks
        self.offsets = offsets
        self.packed = packed
        self.fail = fail
        self.root_row = root_row
        self.depth = depth  # (n_states,) int64 trie depth — the walk bound
        self._dense_bytes = dense_bytes
        self._max_depth = int(depth.max()) if depth.size else 0

    @classmethod
    def from_automaton(
        cls, ac: AhoCorasickAutomaton, dfa: Optional[DFA] = None
    ) -> "BitmapDeltaSTT":
        """Compress by storing each state's delta vs its failure state.

        Pass a prebuilt *dfa* for the same automaton to skip the second
        dense-table construction (the compression bench does, at 50k
        patterns the dense build dominates otherwise).
        """
        if dfa is None:
            dfa = DFA.from_automaton(ac)
        table = dfa.stt.next_states
        n = dfa.n_states
        fail = np.array(ac.fail, dtype=np.int64)
        depth = np.array(ac.trie.depth, dtype=np.int64)

        bitmaps = np.zeros((n, ALPHABET_SIZE // 8), dtype=np.uint8)
        packed_chunks: List[np.ndarray] = []
        offsets = np.zeros(n + 1, dtype=np.int64)
        root_row = np.array(table[ROOT], dtype=STATE_DTYPE)
        for s in range(1, n):
            diff_cols = np.flatnonzero(table[s] != table[fail[s]])
            if diff_cols.size:
                # ufunc.at: several diff columns can share one bitmap
                # byte; plain fancy-index |= would drop all but one.
                np.bitwise_or.at(
                    bitmaps[s],
                    diff_cols // 8,
                    (1 << (diff_cols % 8)).astype(np.uint8),
                )
                packed_chunks.append(table[s, diff_cols])
            offsets[s + 1] = offsets[s] + diff_cols.size
        packed = (
            np.concatenate(packed_chunks).astype(STATE_DTYPE)
            if packed_chunks
            else np.empty(0, dtype=STATE_DTYPE)
        )
        return cls(
            bitmaps=bitmaps,
            offsets=offsets,
            packed=packed,
            fail=fail,
            root_row=root_row,
            depth=depth,
            dense_bytes=dfa.stt.stats().bytes_total,
        )

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self.fail.size

    @property
    def max_depth(self) -> int:
        """Deepest trie state — the global failure-chain walk bound."""
        return self._max_depth

    def _has_bit(self, state: int, sym: int) -> bool:
        return bool(self.bitmaps[state, sym // 8] & (1 << (sym % 8)))

    def _popcount_prefix(self, state: int, sym: int) -> int:
        """Number of set bits strictly below *sym* in the state's bitmap."""
        full_bytes = self.bitmaps[state, : sym // 8]
        count = int(np.unpackbits(full_bytes).sum()) if full_bytes.size else 0
        rem = sym % 8
        if rem:
            last = int(self.bitmaps[state, sym // 8]) & ((1 << rem) - 1)
            count += bin(last).count("1")
        return count

    def delta(self, state: int, sym: int) -> int:
        """δ(state, sym) by failure-chain walk (scalar; exact).

        The walk is depth-bounded: failure links strictly decrease trie
        depth, so more than ``depth[state]`` hops proves the failure
        function is corrupt and raises instead of looping.
        """
        if not 0 <= state < self.n_states:
            raise ReproError("state index out of range")
        if not 0 <= sym < ALPHABET_SIZE:
            raise ReproError("symbol out of range")
        s = state
        bound = int(self.depth[state])
        steps = 0
        while s != ROOT:
            if self._has_bit(s, sym):
                idx = self.offsets[s] + self._popcount_prefix(s, sym)
                return int(self.packed[idx])
            s = int(self.fail[s])
            steps += 1
            if steps > bound:
                raise IntegrityError(
                    f"bitmap failure-chain walk exceeded depth bound "
                    f"{bound} at state {state} (corrupt failure function)"
                )
        return int(self.root_row[sym])

    def _rank(self, states: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """Vectorized popcount-rank: packed index for (state, sym) hits."""
        byte_idx = syms >> 3
        rows = _POPCOUNT[self.bitmaps[states]]  # (k, 32) int64 popcounts
        prefix = np.where(_COLS[None, :] < byte_idx[:, None], rows, 0).sum(axis=1)
        rem_mask = (_BIT[syms & 7] - np.uint8(1)).astype(np.uint8)
        partial = self.bitmaps[states, byte_idx] & rem_mask
        prefix += _POPCOUNT[partial]
        return self.offsets[states] + prefix

    def walk_next_states(
        self, states: np.ndarray, syms: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Vectorized lockstep δ: ``(next_states, total_chain_steps)``.

        All lanes walk their failure chains together; a lane drops out
        as soon as its bitmap has the symbol's bit (popcount-rank into
        ``packed``) or it bottoms out at the root (``root_row``).  The
        loop iteration count is capped by each lane's *starting* trie
        depth — the bounded-walk assertion: iteration ``i`` can only
        still contain lanes whose start state is at depth >= ``i``.
        """
        s = np.asarray(states, dtype=np.int64).copy()
        a = np.asarray(syms, dtype=np.int64)
        if s.size and (s.min() < 0 or s.max() >= self.n_states):
            raise ReproError("state index out of range")
        if a.size and (a.min() < 0 or a.max() >= ALPHABET_SIZE):
            raise ReproError("symbol out of range")
        res = np.empty(s.shape, dtype=STATE_DTYPE)
        pending = np.arange(s.size, dtype=np.int64)
        byte_idx = a >> 3
        bit = _BIT[a & 7]
        start_depth = self.depth[s] if s.size else s
        total_steps = 0
        hops = 0
        while pending.size:
            # Bounded-walk assertion: a lane still unresolved after
            # `hops` fail-links must have started at depth >= hops
            # (every well-formed link strictly decreases depth).
            if hops and bool((start_depth[pending] < hops).any()):
                bad = int(pending[start_depth[pending] < hops][0])
                raise IntegrityError(
                    f"bitmap failure-chain walk exceeded depth bound "
                    f"{int(start_depth[bad])} for lane {bad} "
                    "(corrupt failure function)"
                )
            sp = s[pending]
            at_root = sp == ROOT
            if at_root.any():
                done = pending[at_root]
                res[done] = self.root_row[a[done]]
                pending = pending[~at_root]
                if not pending.size:
                    break
                sp = s[pending]
            has = (
                self.bitmaps[sp, byte_idx[pending]] & bit[pending]
            ).astype(bool)
            if has.any():
                hit = pending[has]
                res[hit] = self.packed[self._rank(s[hit], a[hit])]
            pending = pending[~has]
            if pending.size:
                s[pending] = self.fail[s[pending]]
                total_steps += int(pending.size)
            hops += 1
        return res, total_steps

    def next_states(self, states: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """Vectorized δ lookup, bit-exact with the dense table."""
        return self.walk_next_states(states, syms)[0]

    def chain_length(self, state: int, sym: int) -> int:
        """Failure-chain steps the lookup performed (cost metric)."""
        s, steps = state, 0
        bound = int(self.depth[state])
        while s != ROOT:
            if self._has_bit(s, sym):
                return steps
            s = int(self.fail[s])
            steps += 1
            if steps > bound:
                raise IntegrityError(
                    f"bitmap failure-chain walk exceeded depth bound "
                    f"{bound} at state {state} (corrupt failure function)"
                )
        return steps

    def stats(self) -> CompressionStats:
        """Compression accounting."""
        compressed = (
            self.bitmaps.nbytes
            + self.offsets.nbytes
            + self.packed.nbytes
            + self.fail.nbytes
            + self.root_row.nbytes
            + self.depth.nbytes
        )
        return CompressionStats(
            dense_bytes=self._dense_bytes,
            compressed_bytes=compressed,
            n_states=self.n_states,
        )

    def verify_against(self, dfa: DFA, sample: int = 2000, seed: int = 0) -> bool:
        """Randomized equality check against the dense table."""
        rng = np.random.default_rng(seed)
        states = rng.integers(0, self.n_states, size=sample)
        syms = rng.integers(0, ALPHABET_SIZE, size=sample)
        dense = dfa.stt.next_states
        if not all(
            self.delta(int(s), int(a)) == int(dense[s, a])
            for s, a in zip(states, syms)
        ):
            return False
        got = self.next_states(states.astype(np.int64), syms.astype(np.int64))
        return bool(np.array_equal(got, dense[states, syms]))

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-describing CRC-checked blob (see :mod:`repro.compress.blob`)."""
        return pack_arrays(
            BITMAP_BLOB_FORMAT,
            {"n_states": self.n_states, "dense_bytes": int(self._dense_bytes)},
            [
                ("bitmaps", self.bitmaps),
                ("offsets", self.offsets),
                ("packed", self.packed),
                ("fail", self.fail),
                ("root_row", self.root_row),
                ("depth", self.depth),
            ],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitmapDeltaSTT":
        """Inverse of :meth:`to_bytes`; validates structure before use.

        Beyond the packer's CRC/truncation checks, the structural pass
        rejects payloads whose arrays are internally inconsistent — a
        packed array shorter than ``offsets[-1]`` (a silently-truncated
        delta store), non-monotone offsets, or a failure function that
        does not strictly decrease depth (which would defeat the
        bounded-walk guarantee).
        """
        header, arrays = unpack_arrays(data, BITMAP_BLOB_FORMAT)
        try:
            n = int(header["n_states"])
            dense_bytes = int(header["dense_bytes"])
            bitmaps = arrays["bitmaps"]
            offsets = arrays["offsets"]
            packed = arrays["packed"]
            fail = arrays["fail"]
            root_row = arrays["root_row"]
            depth = arrays["depth"]
        except KeyError as exc:
            raise SerializationError(f"bitmap blob missing {exc}") from exc
        if bitmaps.shape != (n, ALPHABET_SIZE // 8):
            raise SerializationError("bitmap blob: bitmaps shape mismatch")
        if offsets.shape != (n + 1,) or fail.shape != (n,) or depth.shape != (n,):
            raise SerializationError("bitmap blob: per-state array shape mismatch")
        if root_row.shape != (ALPHABET_SIZE,):
            raise SerializationError("bitmap blob: root_row shape mismatch")
        if n and (offsets[0] != 0 or np.any(np.diff(offsets) < 0)):
            raise SerializationError("bitmap blob: offsets not monotone from 0")
        if n and int(offsets[-1]) != packed.size:
            raise SerializationError(
                f"bitmap blob: packed store has {packed.size} entries, "
                f"offsets demand {int(offsets[-1])} (truncated delta store)"
            )
        if n and (fail.min() < 0 or fail.max() >= n):
            raise SerializationError("bitmap blob: failure target out of range")
        if n:
            nonroot = np.arange(1, n)
            if np.any(depth[fail[nonroot]] >= depth[nonroot]):
                raise SerializationError(
                    "bitmap blob: failure function does not strictly "
                    "decrease depth (walk bound would not hold)"
                )
            if int(depth[ROOT]) != 0:
                raise SerializationError("bitmap blob: root depth != 0")
        return cls(
            bitmaps=bitmaps,
            offsets=offsets.astype(np.int64),
            packed=packed.astype(STATE_DTYPE),
            fail=fail.astype(np.int64),
            root_row=root_row.astype(STATE_DTYPE),
            depth=depth.astype(np.int64),
            dense_bytes=dense_bytes,
        )
