"""Keyword trie — the skeleton of the AC goto function.

Phase 1 of the AC algorithm (paper Section II) first inserts every
pattern into a trie rooted at state 0; the trie edges *are* the defined
part of the goto function ``g``.  The automaton's failure function and
output sets are then derived from this structure by breadth-first
traversal (:mod:`repro.core.automaton`), and
:meth:`~repro.core.dfa.DFA.from_automaton` (the reference DFA
construction) works from that automaton.
:meth:`~repro.core.dfa.DFA.build` does not use this class: it makes
the same states, numbered the same way, one depth at a time in NumPy.

The trie is stored in flat parallel lists (children dicts, depth,
parent, incoming symbol, terminal pattern ids) rather than node
objects: building a 20,000-pattern dictionary touches a few hundred
thousand nodes and flat lists keep that allocation-light.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.pattern_set import PatternSet

#: State id of the trie root (AC state 0).
ROOT: int = 0


class Trie:
    """Byte-keyed keyword trie with per-node terminal pattern ids.

    Build one with :meth:`from_patterns`; the AC automaton builder
    consumes the flat representation directly.

    Attributes
    ----------
    children:
        ``children[s]`` is a dict mapping input byte -> child state id.
        This is the defined portion of the goto function ``g``.
    depth:
        ``depth[s]`` is the number of edges from the root to ``s`` —
        also the length of the prefix the state represents.
    parent:
        ``parent[s]`` is the predecessor state (``-1`` for the root).
    symbol:
        ``symbol[s]`` is the byte labelling the edge into ``s``
        (``-1`` for the root).
    terminal:
        ``terminal[s]`` is the list of pattern ids whose *exact* string
        ends at ``s`` (before failure-function augmentation; the full
        AC output function is computed in :mod:`repro.core.automaton`).
    """

    __slots__ = ("children", "depth", "parent", "symbol", "terminal")

    def __init__(self) -> None:
        self.children: List[Dict[int, int]] = [{}]
        self.depth: List[int] = [0]
        self.parent: List[int] = [-1]
        self.symbol: List[int] = [-1]
        self.terminal: List[List[int]] = [[]]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_patterns(cls, patterns: PatternSet) -> "Trie":
        """Insert every pattern of *patterns*; pattern id = set index."""
        trie = cls()
        for pid, pattern in enumerate(patterns):
            trie._insert(pattern, pid)
        return trie

    def _insert(self, pattern: np.ndarray, pattern_id: int) -> None:
        state = ROOT
        for byte in pattern.tolist():
            nxt = self.children[state].get(byte)
            if nxt is None:
                nxt = self._new_state(parent=state, symbol=byte)
                self.children[state][byte] = nxt
            state = nxt
        self.terminal[state].append(pattern_id)

    def _new_state(self, parent: int, symbol: int) -> int:
        sid = len(self.children)
        self.children.append({})
        self.depth.append(self.depth[parent] + 1)
        self.parent.append(parent)
        self.symbol.append(symbol)
        self.terminal.append([])
        return sid

    # -- accessors ------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of trie states including the root."""
        return len(self.children)

    def goto(self, state: int, byte: int) -> int:
        """Defined goto: child state or ``-1`` when ``g(state, byte)=fail``.

        Note the AC convention ``g(0, a) = 0`` for symbols with no edge
        out of the root (the root "loops back", paper Fig. 1a) is *not*
        applied here — this is the raw trie; the automaton layer adds
        the root self-loops.
        """
        return self.children[state].get(byte, -1)

    def bfs_order(self) -> Iterator[int]:
        """Yield non-root states in breadth-first order.

        BFS order guarantees a state's failure target (which is always
        strictly shallower) is finalized before the state itself is
        visited — the invariant both the failure-function and DFA
        builders rely on.
        """
        queue: List[int] = sorted(self.children[ROOT].values())
        head = 0
        while head < len(queue):
            state = queue[head]
            head += 1
            yield state
            queue.extend(sorted(self.children[state].values()))

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield all trie edges as ``(state, byte, child)`` tuples."""
        for state, kids in enumerate(self.children):
            for byte, child in kids.items():
                yield state, byte, child
