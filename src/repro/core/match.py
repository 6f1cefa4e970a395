"""Match records and result containers.

A match is an occurrence of pattern ``pid`` whose last byte sits at
text index ``end`` (the paper reports matches "at the end of position
in the text string").  Results move through the library as a pair of
parallel NumPy arrays — the kernels can emit hundreds of thousands of
occurrences, and Python-object-per-match would dominate runtime.
:class:`MatchResult` wraps the pair with set-like conveniences used by
tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Set, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Match:
    """A single pattern occurrence (end position, pattern id)."""

    end: int
    pattern_id: int

    def start(self, pattern_length: int) -> int:
        """Start index of the occurrence given the pattern's length."""
        return self.end - pattern_length + 1


#: Widest packed (end, pattern_id) key, in bits; keeps the key
#: non-negative in int64 with a bit to spare.
_KEY_BITS = 62


def _canonical(ends: np.ndarray, pattern_ids: np.ndarray):
    """Non-empty pairs sorted by (end, pattern_id), exact duplicates dropped.

    Always fresh arrays.  Keys that already ascend strictly (canonical
    results over ascending, disjoint end ranges) skip sort and dedupe.
    """
    b = int(pattern_ids.max()).bit_length()
    if (
        ends.min() >= 0
        and pattern_ids.min() >= 0
        and int(ends.max()).bit_length() + b <= _KEY_BITS
    ):
        key = ends << b
        key |= pattern_ids
        if not np.all(key[1:] > key[:-1]):
            key.sort()
            keep = np.empty(key.size, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
        return key >> b, key & ((1 << b) - 1)
    order = np.lexsort((pattern_ids, ends))
    ends = ends[order]
    pattern_ids = pattern_ids[order]
    keep = np.ones(ends.size, dtype=bool)
    keep[1:] = (np.diff(ends) != 0) | (np.diff(pattern_ids) != 0)
    return ends[keep], pattern_ids[keep]


class MatchResult:
    """Column-oriented container for a set of matches.

    Parameters
    ----------
    ends, pattern_ids:
        Equal-length integer arrays.  They are canonicalized: sorted by
        (end, pattern_id) with exact duplicates removed, so two results
        covering the same occurrences always compare equal regardless
        of the order kernels emitted them in (thread completion order
        is nondeterministic on real hardware).  The constructor is the
        only place that order is built: it packs each pair into one
        int64 key, ``end << b | pattern_id`` with ``b`` the bit length
        of the largest id, and sorts the keys once, unless they
        already ascend strictly.  The result owns read-only copies;
        the caller's arrays stay writeable.  Pairs the key
        cannot hold (a negative value, or more than 62 bits in total)
        take a two-key ``np.lexsort`` instead; no engine emits them.
    """

    __slots__ = ("ends", "pattern_ids")

    def __init__(self, ends: np.ndarray, pattern_ids: np.ndarray):
        ends = np.asarray(ends, dtype=np.int64).ravel()
        pattern_ids = np.asarray(pattern_ids, dtype=np.int64).ravel()
        if ends.shape != pattern_ids.shape:
            raise ValueError(
                f"ends {ends.shape} and pattern_ids {pattern_ids.shape} differ"
            )
        if ends.size:
            ends, pattern_ids = _canonical(ends, pattern_ids)
        else:
            ends, pattern_ids = ends.copy(), pattern_ids.copy()
        ends.setflags(write=False)
        pattern_ids.setflags(write=False)
        self.ends = ends
        self.pattern_ids = pattern_ids

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "MatchResult":
        """A result with no matches."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "MatchResult":
        """Build from ``(end, pattern_id)`` tuples (e.g. the oracle)."""
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        arr = np.asarray(pairs, dtype=np.int64)
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def concat(cls, results: Iterable["MatchResult"]) -> "MatchResult":
        """Union of several results (duplicates across inputs removed)."""
        results = [r for r in results]
        if not results:
            return cls.empty()
        return cls(
            np.concatenate([r.ends for r in results]),
            np.concatenate([r.pattern_ids for r in results]),
        )

    # -- protocol -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.ends.size)

    def __iter__(self) -> Iterator[Match]:
        for e, p in zip(self.ends.tolist(), self.pattern_ids.tolist()):
            yield Match(e, p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchResult):
            return NotImplemented
        return bool(
            np.array_equal(self.ends, other.ends)
            and np.array_equal(self.pattern_ids, other.pattern_ids)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash((self.ends.tobytes(), self.pattern_ids.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MatchResult(n={len(self)})"

    # -- conversions ------------------------------------------------------

    def as_pairs(self) -> List[Tuple[int, int]]:
        """List of ``(end, pattern_id)`` tuples, canonically ordered."""
        return list(zip(self.ends.tolist(), self.pattern_ids.tolist()))

    def as_set(self) -> Set[Tuple[int, int]]:
        """Set of ``(end, pattern_id)`` tuples."""
        return set(self.as_pairs())

    def starts(self, pattern_lengths: np.ndarray) -> np.ndarray:
        """Start positions, given per-pattern lengths indexed by id."""
        lengths = np.asarray(pattern_lengths, dtype=np.int64)
        return self.ends - lengths[self.pattern_ids] + 1

    def count_by_pattern(self, n_patterns: int) -> np.ndarray:
        """Occurrences per pattern id (length *n_patterns*)."""
        return np.bincount(self.pattern_ids, minlength=n_patterns).astype(np.int64)

    def restrict_to_range(self, lo: int, hi: int) -> "MatchResult":
        """Matches whose end position lies in ``[lo, hi)``."""
        mask = (self.ends >= lo) & (self.ends < hi)
        return MatchResult(self.ends[mask], self.pattern_ids[mask])
