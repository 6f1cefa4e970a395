"""Monolithic lockstep execution of the AC DFA: the reference engine.

On the GPU, every thread of a warp executes the same instruction on its
own chunk (SIMD/SIMT, paper Section III).  This module reproduces that
execution shape in NumPy at its plainest: all threads advance one input
byte per step through the dense STT (``dfa.stt.table[state, byte]``),
and the whole ``(window_len, n_threads)`` state trace is materialized
before matches are extracted.

Production scans use the tiled engine (:mod:`repro.core.tiled`), which
streams the same lockstep run in fixed-size step tiles through a fused
gather.  :func:`run_dfa_lockstep` and :func:`extract_matches` share no
gather code with it on purpose: ``tests/core/test_tiled.py`` checks the
tiled engine against this reference, trace for trace and match for
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.alphabet import STATE_DTYPE
from repro.core.chunking import ChunkPlan, ownership_mask
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.trie import ROOT


@dataclass
class LockstepTrace:
    """Per-step state trace of a lockstep DFA run.

    Attributes
    ----------
    states_after:
        ``(window_len, n_threads)`` int32 — the DFA state *after*
        consuming step ``j``'s byte.  Row ``j-1`` (or the root for
        ``j == 0``) is therefore the STT row *fetched* at step ``j``.
    valid:
        ``(window_len, n_threads)`` bool — True where the scanned byte
        lies inside the real input (False in the zero-padded tail).
    plan:
        The chunk geometry that shaped the run.
    """

    states_after: np.ndarray
    valid: np.ndarray
    plan: ChunkPlan

    @property
    def n_threads(self) -> int:
        """Number of lockstep threads (chunks)."""
        return self.states_after.shape[1]

    @property
    def window_len(self) -> int:
        """Steps executed per thread."""
        return self.states_after.shape[0]

    def states_fetched(self) -> np.ndarray:
        """States whose STT row is read at each step (texture accesses).

        Shape ``(window_len, n_threads)``: row 0 is all-ROOT (every
        thread starts at state 0), row ``j`` is ``states_after[j-1]``.
        """
        fetched = np.empty_like(self.states_after)
        fetched[0, :] = ROOT
        fetched[1:, :] = self.states_after[:-1, :]
        return fetched

    def visit_histogram(self, n_states: int) -> np.ndarray:
        """How many times each STT row was fetched (valid steps only).

        This histogram drives the texture-cache and CPU-cache models:
        natural-language text concentrates fetches on a small set of
        shallow states, which is why the texture cache works at all.
        """
        fetched = self.states_fetched()[self.valid]
        return np.bincount(fetched, minlength=n_states).astype(np.int64)

    def total_fetches(self) -> int:
        """Number of valid STT fetches (== bytes actually scanned)."""
        return int(self.valid.sum())


def run_dfa_lockstep(
    dfa: DFA, windows: np.ndarray, plan: ChunkPlan
) -> LockstepTrace:
    """Advance every chunk through the DFA one byte per step.

    The plain dense lookup, one fancy-indexing gather per step with the
    full trace materialized — the reference the tiled engine is tested
    against, not a scan path (large scans use
    :func:`repro.core.tiled.scan_tiled`).

    Parameters
    ----------
    dfa:
        The automaton (dense STT).
    windows:
        Step-major ``(window_len, n_threads)`` uint8 byte matrix from
        :func:`repro.core.chunking.build_windows`.
    plan:
        Chunk geometry (for validity masking).

    Returns
    -------
    LockstepTrace
    """
    window_len, n_threads = windows.shape
    table = dfa.stt.table
    states_after = np.empty((window_len, n_threads), dtype=STATE_DTYPE)
    state = np.full(n_threads, ROOT, dtype=np.int64)
    for j in range(window_len):
        state = table[state, windows[j]]
        states_after[j] = state

    positions = plan.starts[None, :] + np.arange(window_len, dtype=np.int64)[:, None]
    valid = positions < plan.n
    return LockstepTrace(states_after=states_after, valid=valid, plan=plan)


def extract_matches(dfa: DFA, trace: LockstepTrace) -> Tuple[MatchResult, int]:
    """Turn a lockstep trace into the owned match set.

    Applies the paper's overlap-ownership rule: a thread reports only
    matches that *start* inside its own chunk, which deduplicates the
    overlap region and (provably; see ``tests/core/test_chunking.py``)
    reconstructs the exact serial match set.

    Returns
    -------
    (matches, raw_hits):
        ``matches`` — the deduplicated, owned :class:`MatchResult`;
        ``raw_hits`` — number of (position, state) hits before
        ownership filtering (a kernel-side work metric: each raw hit is
        an output-buffer write in the CUDA kernel).
    """
    plan = trace.plan
    flags = dfa.stt.match_flags  # (n_states,)
    hit_mask = (flags[trace.states_after] != 0) & trace.valid
    j_idx, t_idx = np.nonzero(hit_mask)
    raw_hits = int(j_idx.size)
    if raw_hits == 0:
        return MatchResult.empty(), 0

    ends = plan.starts[t_idx] + j_idx
    states = trace.states_after[j_idx, t_idx].astype(np.int64, copy=False)

    # CSR expansion: one row per emitted pattern occurrence.
    offs = dfa.out_offsets
    counts = offs[states + 1] - offs[states]
    exp_ends, exp_pids = dfa.gather_matches(ends, states)
    exp_threads = np.repeat(t_idx, counts)

    own = ownership_mask(
        plan, exp_threads, exp_ends, dfa.pattern_lengths[exp_pids]
    )
    return MatchResult(exp_ends[own], exp_pids[own]), raw_hits
