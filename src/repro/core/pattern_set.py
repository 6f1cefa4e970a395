"""Validated collections of patterns (the paper's "finite set of strings").

A :class:`PatternSet` is the phase-1 input of the AC algorithm: the
dictionary against which every input text is matched.  The paper's
evaluation sweeps dictionaries of 100 to 20,000 patterns extracted from
a 50 GB magazine corpus; :mod:`repro.workload.patterns` produces such
sets, and this class is the common currency between the workload
generators, the automaton builders, and the kernels.

Duplicate patterns are removed (keeping first occurrence) because the
AC output function reports *pattern ids*, and two identical patterns
would be indistinguishable at match time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.alphabet import BytesLike, decode, encode
from repro.errors import PatternError

#: Domain separator baked into every digest (bump on format change).
_DIGEST_DOMAIN = b"repro-ac/pattern-set/v1\x00"


@dataclass(frozen=True)
class PatternStats:
    """Summary statistics of a pattern set.

    ``max_length`` is the paper's ``X``-source: each matching thread
    spans its chunk by ``max_length - 1`` extra characters so matches
    that straddle a chunk boundary are still found (Section IV-B-3).
    """

    count: int
    min_length: int
    max_length: int
    total_bytes: int

    @property
    def mean_length(self) -> float:
        """Average pattern length in bytes."""
        return self.total_bytes / self.count if self.count else 0.0

    @property
    def overlap(self) -> int:
        """Chunk overlap ``X`` = longest pattern length − 1."""
        return max(self.max_length - 1, 0)


class PatternSet:
    """An immutable, deduplicated, validated set of byte patterns.

    Parameters
    ----------
    patterns:
        Iterable of bytes-like/str patterns.  Must be non-empty and
        contain no empty pattern (an empty pattern would match at every
        position and has no AC trie representation).

    Examples
    --------
    >>> ps = PatternSet.from_strings(["he", "she", "his", "hers"])
    >>> len(ps)
    4
    >>> ps.stats().max_length
    4
    """

    __slots__ = ("_patterns", "_stats", "_digests")

    def __init__(self, patterns: Iterable[BytesLike]):
        encoded: List[np.ndarray] = []
        seen = set()
        for i, pat in enumerate(patterns):
            arr = encode(pat, name=f"pattern[{i}]")
            if arr.size == 0:
                raise PatternError(f"pattern[{i}] is empty")
            key = arr.tobytes()
            if key in seen:
                continue
            seen.add(key)
            arr.setflags(write=False)
            encoded.append(arr)
        if not encoded:
            raise PatternError("pattern set must contain at least one pattern")
        self._adopt(encoded)

    def _adopt(self, arrays: Sequence[np.ndarray]) -> None:
        """Set every slot from validated arrays (all constructors end here)."""
        self._patterns: Tuple[np.ndarray, ...] = tuple(arrays)
        lengths = [p.size for p in self._patterns]
        self._stats = PatternStats(
            count=len(lengths),
            min_length=min(lengths),
            max_length=max(lengths),
            total_bytes=sum(lengths),
        )
        self._digests: Dict[bool, str] = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "PatternSet":
        """Build from a sequence of ``str`` (Latin-1 encoded)."""
        return cls(strings)

    @classmethod
    def from_bytes(cls, blobs: Sequence[bytes]) -> "PatternSet":
        """Build from a sequence of ``bytes``."""
        return cls(blobs)

    @classmethod
    def _from_validated_arrays(
        cls, arrays: Sequence[np.ndarray]
    ) -> "PatternSet":
        """Fast path for already-encoded, deduplicated, non-empty arrays.

        Used by :meth:`PatternDelta.apply_to
        <repro.core.delta.PatternDelta.apply_to>`, where the surviving
        patterns are the base set's own read-only arrays, so a version
        shares them with its parent instead of re-encoding 20k copies.
        The *caller* is responsible for the class invariants (no
        empties, no duplicates, read-only buffers).
        """
        ps = cls.__new__(cls)
        ps._adopt(arrays)
        return ps

    # -- protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self._stats.count

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._patterns)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._patterns[index]

    def __contains__(self, item: BytesLike) -> bool:
        needle = encode(item).tobytes()
        return any(p.tobytes() == needle for p in self._patterns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternSet):
            return NotImplemented
        return [p.tobytes() for p in self._patterns] == [
            p.tobytes() for p in other._patterns
        ]

    def __hash__(self) -> int:
        return hash(tuple(p.tobytes() for p in self._patterns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self._stats
        return (
            f"PatternSet(count={s.count}, min_len={s.min_length}, "
            f"max_len={s.max_length})"
        )

    # -- accessors ------------------------------------------------------

    def stats(self) -> PatternStats:
        """Return aggregate :class:`PatternStats`."""
        return self._stats

    @property
    def max_length(self) -> int:
        """Length of the longest pattern (source of the chunk overlap X)."""
        return self._stats.max_length

    def digest(self, case_insensitive: bool = False) -> str:
        """Content digest of the set plus the fold flag (hex, 64 chars).

        SHA-256 over a domain separator, ``ci=0``/``ci=1``, then every
        pattern in id order behind its 4-byte little-endian length (so
        ``["ab", "c"]`` and ``["a", "bc"]`` cannot collide), ASCII
        lower-cased under the fold flag.  Two sets share a digest iff
        they build byte-identical automata (docs/MODEL.md §8).  The set
        is immutable, so each flag's value is computed once and kept.
        """
        ci = bool(case_insensitive)
        value = self._digests.get(ci)
        if value is None:  # racing first calls store the same value
            h = hashlib.sha256(_DIGEST_DOMAIN)
            h.update(b"ci=1\x00" if ci else b"ci=0\x00")
            for p in self._patterns:
                raw = p.tobytes().lower() if ci else p.tobytes()
                h.update(len(raw).to_bytes(4, "little"))
                h.update(raw)
            value = self._digests[ci] = h.hexdigest()
        return value

    def pattern_bytes(self, index: int) -> bytes:
        """Pattern *index* as ``bytes``."""
        return decode(self._patterns[index])

    def as_bytes_list(self) -> List[bytes]:
        """All patterns as a list of ``bytes`` (copying)."""
        return [decode(p) for p in self._patterns]

    def lengths(self) -> np.ndarray:
        """Array of pattern lengths, indexed by pattern id."""
        return np.array([p.size for p in self._patterns], dtype=np.int64)
