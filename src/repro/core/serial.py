"""Serial matchers — the paper's single-CPU-core baseline.

Two implementations of phase 2 on one core:

* :func:`match_serial_python` — the literal Fig. 2 pseudocode: one
  Python loop, one δ lookup per byte.  This is the semantic reference
  (slow; intended for tests and small inputs).
* :func:`match_serial` — a production serial matcher that runs the
  same DFA through the vectorized lockstep engine with chunk overlap.
  Its match set is bit-identical to the Python loop (tested), while
  running at NumPy speed so the test/bench harness can process
  megabytes.

The serial *timing* reported in the paper's Figs. 13/16 is modeled in
:mod:`repro.bench.cpu_model` (a 2.2 GHz Core2 with a 4 MB L2); the
functional matchers here supply the state-visit histogram that model
needs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.alphabet import BytesLike, MATCH_COLUMN, encode
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import StateVisitHistogram, scan_tiled
from repro.core.trie import ROOT

#: Default chunk length for the vectorized serial matcher.  Large
#: enough that per-chunk overhead is negligible, small enough that the
#: lockstep matrix for a given text stays cache-resident.
DEFAULT_SERIAL_CHUNK = 4096


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


def match_serial(
    dfa: DFA, text: BytesLike, chunk_len: int = DEFAULT_SERIAL_CHUNK
) -> MatchResult:
    """Production serial matcher (vectorized, exact).

    Semantically identical to :func:`match_serial_python`; implemented
    as one tiled lockstep scan (:func:`repro.core.tiled.scan_tiled`) so
    a single CPU core processes megabytes per second in pure NumPy.
    The chunking is an implementation detail of the *functional* scan —
    the serial *timing model* charges the run as one sequential pass
    (no parallel credit).
    """
    data = encode(text, name="text")
    if data.size == 0:
        return MatchResult.empty()
    return scan_tiled(dfa, data, chunk_len=chunk_len).matches


#: Canonical name for the single-core scan: the multicore matcher
#: (:func:`repro.core.multicore.scan_multicore`) is differential-tested
#: byte-identical against this, and docs/tests refer to the pair as
#: ``scan_serial`` vs ``scan_multicore``.
scan_serial = match_serial


def serial_state_histogram(
    dfa: DFA, text: BytesLike, chunk_len: int = DEFAULT_SERIAL_CHUNK
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
    scan_tiled(dfa, data, chunk_len=chunk_len, sinks=[hist])
    return hist.hist
