"""Serial matchers — the paper's single-CPU-core baseline.

Two implementations of phase 2 on one core:

* :func:`match_serial_python` — the literal Fig. 2 pseudocode: one
  Python loop, one δ lookup per byte.  This is the semantic reference
  (slow; intended for tests and small inputs).
* :func:`scan_from` — the one single-thread CPU scan.  The serial
  backend (:func:`match_serial`, which is also the resilient
  pipeline's last fallback),
  :class:`~repro.core.streaming.StreamMatcher` and every slab of
  :func:`~repro.core.multicore.scan_multicore` run it.  Inputs
  shorter than :data:`VECTOR_THRESHOLD` take a scalar walk; longer
  ones run the tiled lockstep engine with chunk overlap, with lanes
  sized from the input (:func:`_lane_plan`).  Either way its match set
  is bit-identical to the Python loop (property-tested), at NumPy
  speed.

The serial *timing* reported in the paper's Figs. 13/16 is modeled in
:mod:`repro.bench.cpu_model` (a 2.2 GHz Core2 with a 4 MB L2); the
functional matchers here supply the state-visit histogram that model
needs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.alphabet import BytesLike, MATCH_COLUMN, encode
from repro.core.chunking import ChunkPlan, plan_chunks, required_overlap
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import (
    DEFAULT_CHUNK_LEN, DEFAULT_TILE_LEN, StateVisitHistogram, feed_sinks,
    scan_tiled,
)
from repro.core.trie import ROOT

#: Inputs shorter than this take the scalar walk; longer ones run the
#: tiled lockstep engine.
VECTOR_THRESHOLD = 1024

#: Lockstep lanes a sized plan aims for, and its longest chunk.
_LANES = 4096


def match_serial_python(dfa: DFA, text: BytesLike) -> List[Tuple[int, int]]:
    """Reference serial scan: paper Fig. 2, one transition per byte.

    Returns ``(end, pattern_id)`` tuples sorted canonically.  O(n)
    transitions but Python-loop constants — use for small inputs only.
    """
    data = encode(text, name="text")
    table = dfa.stt.table
    out: List[Tuple[int, int]] = []
    state = ROOT
    for pos, byte in enumerate(data.tolist()):
        state = int(table[state, byte])
        if table[state, MATCH_COLUMN]:
            for pid in dfa.outputs_of(state).tolist():
                out.append((pos, pid))
    out.sort()
    return out


def _lane_plan(n: int, overlap: int, slabs: int = 1) -> ChunkPlan:
    """Lockstep geometry of a scan of *n* bytes, one of *slabs* at once.

    About ``_LANES × slabs`` lanes (each op's dispatch holds the GIL,
    so concurrent slabs want wider steps), each owning at least
    ``4 × overlap`` bytes, so the overlap re-scan stays at or below 25%
    while the overlap is at most ``_LANES / 4``.  No chunk is longer
    than the input or than ``_LANES``, so from ``_LANES**2 × slabs``
    bytes on the plan is ``plan_chunks(n, _LANES, overlap)``.
    """
    chunk = min(_LANES, max(4 * overlap, -(-n // (_LANES * slabs))), n)
    return plan_chunks(n, chunk, overlap)


def _tile_len(lanes: int, slabs: int) -> int:
    """Steps per tile for *slabs* concurrent scans of *lanes* lanes each:
    at most ``DEFAULT_TILE_LEN × _LANES`` tile cells across all of them."""
    cap = DEFAULT_TILE_LEN * _LANES // (lanes * slabs)
    return max(min(DEFAULT_TILE_LEN, cap), 1)


def _walk(dfa: DFA, data: np.ndarray, state: int) -> Tuple[np.ndarray, int]:
    """Scalar DFA walk of *data* from *state*.

    Returns the state after each byte and the state after the last.
    The loop reads the bytes as a pre-converted list of ints.
    """
    table = dfa.stt.next_states
    states = np.empty(data.size, dtype=np.int64)
    for i, byte in enumerate(data.tolist()):
        state = int(table[state, byte])
        states[i] = state
    return states, state


def state_after(dfa: DFA, data: np.ndarray, pos: int, state: int = ROOT) -> int:
    """The DFA state after ``data[:pos]``, entered in *state*.

    It is the longest suffix of the stream that is a trie node, at most
    ``max_length`` bytes long, so past ``max_length`` bytes a root walk
    over the last ``max_length`` of them reproduces it.
    """
    max_len = int(dfa.patterns.max_length)
    if pos > max_len:
        return _walk(dfa, data[pos - max_len : pos], ROOT)[1]
    return _walk(dfa, data[:pos], state)[1]


def scan_from(
    dfa: DFA, data: np.ndarray, state: int = ROOT, *, slabs: int = 1
) -> Tuple[MatchResult, int]:
    """The single-thread scan of *data* (uint8), entered in DFA *state*.

    Returns the matches, with ends relative to ``data[0]``, and the
    DFA state after the last byte.  A match that began before *data*
    (in the bytes that led to *state*) is reported at its end, so a
    stream fed through this scan piece by piece finds every occurrence
    exactly once.

    Short inputs walk the DFA byte by byte and extract matches
    vectorized.  Long ones run :func:`~repro.core.tiled.scan_tiled`
    over :func:`_lane_plan` with *state* seeded into lane 0, and take
    the state after the last byte from :func:`state_after`.  *slabs*
    is how many such scans run at once, this one included
    (:func:`~repro.core.multicore.scan_multicore`); it widens the lanes
    and shortens the tiles, never the matches.
    """
    n = int(data.size)
    if n < VECTOR_THRESHOLD:
        states, state = _walk(dfa, data, state)
        hit = np.flatnonzero(dfa.stt.match_flags[states] != 0)
        return MatchResult(*dfa.gather_matches(hit, states[hit])), state
    plan = _lane_plan(n, required_overlap(dfa.patterns.max_length), slabs)
    tile_len = _tile_len(plan.n_chunks, slabs)
    res = scan_tiled(dfa, data, plan=plan, tile_len=tile_len, init_state=state)
    return res.matches, state_after(dfa, data, n, state)


def match_serial(dfa: DFA, text: BytesLike) -> MatchResult:
    """Production serial matcher (vectorized, exact).

    Semantically identical to :func:`match_serial_python`; runs
    :func:`scan_from` from the root.  The lane geometry is an
    implementation detail of the *functional* scan — the serial
    *timing model* charges the run as one sequential pass (no parallel
    credit).
    """
    return scan_from(dfa, encode(text, name="text"))[0]


def serial_state_histogram(
    dfa: DFA, text: BytesLike, chunk_len: int = DEFAULT_CHUNK_LEN
) -> np.ndarray:
    """STT-row visit histogram of a serial scan over *text*.

    Input to the CPU L2 model: rows visited often stay L2-resident,
    rows in the long tail miss.  Chunked collection is statistically
    indistinguishable from a single pass for this purpose (each chunk
    restarts at the root, perturbing at most ``overlap`` fetches per
    chunk).
    """
    data = encode(text, name="text")
    if data.size == 0:
        return np.zeros(dfa.n_states, dtype=np.int64)
    hist = StateVisitHistogram(dfa.n_states)
    feed_sinks(dfa, data, [hist], chunk_len=chunk_len)
    return hist.hist
