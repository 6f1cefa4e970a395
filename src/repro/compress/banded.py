"""Banded-row STT compression (extension; paper refs [18], [19]).

Zha & Sahni compress AC automata for memory-constrained accelerators.
The simplest effective scheme for the dense STT is *banding*: in almost
every row the interesting transitions cluster in a narrow symbol band
(printable ASCII for prose dictionaries, 4 symbols for DNA) and every
column outside the band holds the same *default* target (the value the
row would inherit from its failure chain — for text dictionaries
usually the root's response).

A :class:`BandedSTT` stores, per state:

* ``default[s]``    — the most frequent target in the row;
* ``lo[s], width[s]`` — the tightest column band containing every
  non-default entry;
* a packed values array holding just the banded columns.

Lookup is branch-free and vectorizable::

    inside = (sym - lo[s]) < width[s]          # unsigned trick
    next = where(inside, values[offset[s] + sym - lo[s]], default[s])

which is exactly two extra ALU ops per fetch on a GPU — the trade the
compression bench (Abl. D) prices against the smaller texture working
set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.alphabet import ALPHABET_SIZE, STATE_DTYPE
from repro.core.stt import STT
from repro.errors import ReproError, SerializationError

#: Inner blob format tag (the REPRODFA section tag wraps this).
BANDED_BLOB_FORMAT = "repro-ac/banded-stt/v1"


@dataclass(frozen=True)
class CompressionStats:
    """Size accounting of a compressed table."""

    dense_bytes: int
    compressed_bytes: int
    n_states: int

    @property
    def ratio(self) -> float:
        """dense / compressed (higher is better)."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.dense_bytes / self.compressed_bytes


class BandedSTT:
    """Band-compressed state transition table.

    Build with :meth:`from_stt`; query with :meth:`next_states` (exact
    drop-in for ``stt.next_states[states, syms]``, verified by tests).
    """

    __slots__ = ("default", "lo", "width", "offsets", "values", "match_flags", "_dense_bytes")

    def __init__(self, default, lo, width, offsets, values, match_flags, dense_bytes):
        self.default = default
        self.lo = lo
        self.width = width
        self.offsets = offsets
        self.values = values
        self.match_flags = match_flags
        self._dense_bytes = dense_bytes

    @classmethod
    def from_stt(cls, stt: STT) -> "BandedSTT":
        """Compress a dense STT row by row (vectorized per row)."""
        table = stt.next_states
        n = table.shape[0]
        default = np.empty(n, dtype=STATE_DTYPE)
        lo = np.zeros(n, dtype=np.int16)
        width = np.zeros(n, dtype=np.int16)
        chunks = []
        offsets = np.zeros(n + 1, dtype=np.int64)
        for s in range(n):
            row = table[s]
            # Row default: the most frequent target.
            vals, counts = np.unique(row, return_counts=True)
            d = vals[np.argmax(counts)]
            default[s] = d
            nz = np.flatnonzero(row != d)
            if nz.size:
                lo[s] = nz[0]
                width[s] = nz[-1] - nz[0] + 1
                chunks.append(row[nz[0] : nz[-1] + 1])
            offsets[s + 1] = offsets[s] + int(width[s])
        values = (
            np.concatenate(chunks).astype(STATE_DTYPE)
            if chunks
            else np.empty(0, dtype=STATE_DTYPE)
        )
        return cls(
            default=default,
            lo=lo,
            width=width,
            offsets=offsets,
            values=values,
            match_flags=np.array(stt.match_flags, dtype=np.int8),
            dense_bytes=int(stt.stats().bytes_total),
        )

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self.default.size

    def next_states(self, states: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """Vectorized δ lookup, bit-exact with the dense table."""
        states = np.asarray(states, dtype=np.int64)
        syms = np.asarray(syms, dtype=np.int64)
        if np.any(states < 0) or np.any(states >= self.n_states):
            raise ReproError("state index out of range")
        rel = syms - self.lo[states].astype(np.int64)
        inside = (rel >= 0) & (rel < self.width[states].astype(np.int64))
        idx = np.where(inside, self.offsets[states] + rel, 0)
        banded = self.values[idx] if self.values.size else np.zeros_like(states)
        return np.where(inside, banded, self.default[states]).astype(
            STATE_DTYPE, copy=False
        )

    def delta(self, state: int, sym: int) -> int:
        """Scalar δ lookup."""
        return int(self.next_states(np.array([state]), np.array([sym]))[0])

    def stats(self) -> CompressionStats:
        """Compression accounting (all auxiliary arrays included)."""
        compressed = (
            self.default.nbytes
            + self.lo.nbytes
            + self.width.nbytes
            + self.offsets.nbytes
            + self.values.nbytes
            + self.match_flags.nbytes
        )
        return CompressionStats(
            dense_bytes=self._dense_bytes,
            compressed_bytes=compressed,
            n_states=self.n_states,
        )

    def verify_against(self, stt: STT) -> bool:
        """Exhaustive equality with the dense table (tests/benches)."""
        n = self.n_states
        states = np.repeat(np.arange(n, dtype=np.int64), ALPHABET_SIZE)
        syms = np.tile(np.arange(ALPHABET_SIZE, dtype=np.int64), n)
        got = self.next_states(states, syms).reshape(n, ALPHABET_SIZE)
        return bool(np.array_equal(got, stt.next_states))

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-describing CRC-checked blob (see :mod:`repro.compress.blob`)."""
        from repro.compress.blob import pack_arrays

        return pack_arrays(
            BANDED_BLOB_FORMAT,
            {"n_states": self.n_states, "dense_bytes": int(self._dense_bytes)},
            [
                ("default", self.default),
                ("lo", self.lo),
                ("width", self.width),
                ("offsets", self.offsets),
                ("values", self.values),
                ("match_flags", self.match_flags),
            ],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BandedSTT":
        """Inverse of :meth:`to_bytes`; validates band structure before use.

        Beyond the blob layer's CRC/truncation checks, the structural
        pass rejects internally inconsistent payloads: a values array
        shorter than ``offsets[-1]`` (a silently-truncated band store),
        non-monotone offsets, offsets that disagree with the widths, or
        bands hanging past column 255.
        """
        from repro.compress.blob import unpack_arrays

        header, arrays = unpack_arrays(data, BANDED_BLOB_FORMAT)
        try:
            n = int(header["n_states"])
            dense_bytes = int(header["dense_bytes"])
            default = arrays["default"]
            lo = arrays["lo"]
            width = arrays["width"]
            offsets = arrays["offsets"]
            values = arrays["values"]
            match_flags = arrays["match_flags"]
        except KeyError as exc:
            raise SerializationError(f"banded blob missing {exc}") from exc
        for name, arr in (
            ("default", default),
            ("lo", lo),
            ("width", width),
            ("match_flags", match_flags),
        ):
            if arr.shape != (n,):
                raise SerializationError(
                    f"banded blob: {name} shape {arr.shape} != ({n},)"
                )
        if offsets.shape != (n + 1,):
            raise SerializationError("banded blob: offsets shape mismatch")
        offsets64 = offsets.astype(np.int64)
        if n:
            if offsets64[0] != 0 or np.any(np.diff(offsets64) < 0):
                raise SerializationError(
                    "banded blob: offsets not monotone from 0"
                )
            if not np.array_equal(np.diff(offsets64), width.astype(np.int64)):
                raise SerializationError(
                    "banded blob: offsets disagree with band widths"
                )
            if np.any(width.astype(np.int64) < 0) or np.any(
                lo.astype(np.int64) + width.astype(np.int64) > ALPHABET_SIZE
            ):
                raise SerializationError(
                    "banded blob: band exceeds the symbol range"
                )
        if int(offsets64[-1]) != values.size:
            raise SerializationError(
                f"banded blob: values store has {values.size} entries, "
                f"offsets demand {int(offsets64[-1])} (truncated band store)"
            )
        return cls(
            default=default.astype(STATE_DTYPE),
            lo=lo.astype(np.int16),
            width=width.astype(np.int16),
            offsets=offsets64,
            values=values.astype(STATE_DTYPE),
            match_flags=match_flags.astype(np.int8),
            dense_bytes=dense_bytes,
        )
