"""Versioned, content-addressed pattern-set registry with lineage.

A production rule feed is a *history*, not a snapshot: version N is
almost always version N-1 plus a small :class:`~repro.core.delta.
PatternDelta`.  :class:`PatternSetRegistry` stores that history per
named rule set — every version is content-addressed by
:func:`~repro.serve.cache.pattern_set_digest` (the same key the
:class:`~repro.serve.cache.AutomatonCache` uses, so a registry version
and a cache entry for the same dictionary agree by construction) and
carries its lineage: the parent version's digest plus the delta that
produced it.  The epoch manager (:mod:`repro.serve.epoch`) builds
every version's automaton from scratch, whatever its lineage
(:class:`~repro.core.delta.DeltaBuilder`); the registry is what
rollback consults for "the last good version".

The registry stores only dictionaries and deltas (cheap, immutable);
compiled automata live in epochs, which are refcounted and retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.delta import PatternDelta
from repro.core.pattern_set import PatternSet
from repro.errors import SwapError
from repro.serve.cache import pattern_set_digest

__all__ = ["PatternSetRegistry", "VersionRecord"]


@dataclass(frozen=True)
class VersionRecord:
    """One immutable version of a named pattern set.

    ``parent_digest``/``delta`` encode lineage: ``None`` for a root
    version (registered whole), otherwise the digest of the version
    this one was derived from and the delta that derived it.  The
    invariant ``digest == pattern_set_digest(patterns)`` and, for
    non-root versions, ``patterns == delta.apply_to(parent.patterns)``
    is established at registration and never revisited.
    """

    name: str
    version: int  # 1-based, dense per name
    digest: str
    patterns: PatternSet
    parent_digest: Optional[str] = None
    delta: Optional[PatternDelta] = None

    @property
    def is_root(self) -> bool:
        """True when this version was registered whole (no parent)."""
        return self.parent_digest is None

    def describe(self) -> str:
        """Human-readable one-liner."""
        origin = (
            "root"
            if self.is_root
            else f"{self.delta.describe()} of {self.parent_digest[:12]}"
        )
        return (
            f"{self.name}@v{self.version} {self.digest[:12]} "
            f"({len(self.patterns)} patterns, {origin})"
        )


class PatternSetRegistry:
    """Named, versioned pattern-set store, content-addressed with lineage.

    Examples
    --------
    >>> from repro.core import PatternDelta
    >>> reg = PatternSetRegistry()
    >>> v1 = reg.register("ids", ["he", "she", "his", "hers"])
    >>> v2 = reg.derive("ids", PatternDelta.from_strings(added=["ushers"]))
    >>> (v2.version, v2.parent_digest == v1.digest)
    (2, True)
    >>> reg.head("ids").version
    2
    """

    def __init__(self) -> None:
        self._versions: Dict[str, List[VersionRecord]] = {}
        self._by_digest: Dict[str, VersionRecord] = {}

    # -- registration ----------------------------------------------------

    def register(
        self, name: str, patterns: Union[PatternSet, list, tuple]
    ) -> VersionRecord:
        """Register a whole dictionary as the next version of *name*.

        The first registration creates the name; later ones append a
        root version (no lineage) — e.g. a full rule-feed resync.
        Re-registering bytes identical to the current head is refused
        (:class:`~repro.errors.SwapError`): a no-op "update" almost
        always means the caller lost track of versions.
        """
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        digest = pattern_set_digest(patterns)
        history = self._versions.setdefault(name, [])
        if history and history[-1].digest == digest:
            raise SwapError(
                f"{name!r} head is already {digest[:12]}; refusing a "
                "no-op re-registration"
            )
        record = VersionRecord(
            name=name,
            version=len(history) + 1,
            digest=digest,
            patterns=patterns,
        )
        history.append(record)
        self._by_digest[digest] = record
        return record

    def derive(
        self,
        name: str,
        delta: PatternDelta,
        *,
        patterns: Optional[PatternSet] = None,
    ) -> VersionRecord:
        """Append the version obtained by applying *delta* to the head.

        Validates the delta against the head dictionary (removals must
        exist, additions must not) — an invalid delta raises
        :class:`~repro.errors.DeltaError` and registers nothing.
        *patterns*, when given, must equal ``delta.apply_to(head)`` —
        the epoch manager passes the dictionary its swap just built, so
        the delta is applied and validated once per swap.
        """
        head = self.head(name)
        if patterns is None:
            patterns = delta.apply_to(head.patterns)
        digest = pattern_set_digest(patterns)
        record = VersionRecord(
            name=name,
            version=head.version + 1,
            digest=digest,
            patterns=patterns,
            parent_digest=head.digest,
            delta=delta,
        )
        self._versions[name].append(record)
        self._by_digest[digest] = record
        return record

    # -- lookup ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    @property
    def names(self) -> Tuple[str, ...]:
        """Registered rule-set names, registration order."""
        return tuple(self._versions)

    def head(self, name: str) -> VersionRecord:
        """The latest version of *name*."""
        try:
            return self._versions[name][-1]
        except KeyError:
            raise SwapError(
                f"unknown pattern-set name {name!r}; registered: "
                f"{sorted(self._versions) or '(none)'}"
            ) from None

    def get(self, name: str, version: int) -> VersionRecord:
        """Version *version* (1-based) of *name*."""
        head = self.head(name)  # raises on unknown name
        history = self._versions[name]
        if not 1 <= version <= head.version:
            raise SwapError(
                f"{name!r} has versions 1..{head.version}, "
                f"not {version}"
            )
        return history[version - 1]

    def by_digest(self, digest: str) -> VersionRecord:
        """The version with the given content digest (any name)."""
        try:
            return self._by_digest[digest]
        except KeyError:
            raise SwapError(
                f"no registered version has digest {digest[:12]}"
            ) from None

    def lineage(self, name: str) -> List[VersionRecord]:
        """Head-to-root chain following ``parent_digest`` edges.

        Stops at the first root version — a full resync cuts lineage,
        exactly like a shallow clone.
        """
        chain = [self.head(name)]
        while chain[-1].parent_digest is not None:
            chain.append(self._by_digest[chain[-1].parent_digest])
        return chain

    def describe(self, name: str) -> str:
        """Multi-line version history for the CLI."""
        head = self.head(name)  # raises on unknown name
        lines = [f"{name}: {head.version} version(s)"]
        for rec in self._versions[name]:
            marker = "*" if rec is head else " "
            lines.append(f" {marker} " + rec.describe())
        return "\n".join(lines)
