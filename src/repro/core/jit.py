"""Optional numba-compiled host fast path, behind ``REPRO_JIT=1``.

The tiled engine's fused column-major gather
(:meth:`repro.core.tiled.GatherKernel.step_fused`), the bitmap
backend's popcount-rank failure-chain walk
(:meth:`repro.compress.bitmap.BitmapDeltaSTT.walk_next_states`), and
the streaming matcher's small-feed scalar walk
(:meth:`repro.core.streaming.StreamMatcher._feed_small`) are the
python-dispatch-bound loops left in the simulator.  When the ``REPRO_JIT``
environment variable is ``1`` *and* numba is importable, all of them route
through ``@njit(nogil=True)`` kernels compiled here; in every other case
(flag unset, numba absent, or compilation failure) they run the exact
pure-NumPy code they always ran.  The two paths are pinned byte-identical
by the differential suites (``tests/core/test_jit.py``), and CI runs the
tier-1 suite in both legs.

``nogil=True`` matters beyond single-thread speed: the multicore matcher
(:mod:`repro.core.multicore`) runs one tiled scan per worker thread, so
a compiled gather that releases the GIL for its whole body scales
strictly better than NumPy's op-by-op release pattern.

Nothing here imports numba at module load — availability is probed
lazily on first use so plain ``import repro`` stays dependency-free.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

import numpy as np

#: Environment variable gating the JIT fast path.  Only the exact
#: value ``"1"`` enables it; anything else is off.
JIT_ENV_VAR = "REPRO_JIT"

# Tri-state caches: None = not probed yet.
_numba_ok: Optional[bool] = None
_kernels: Optional[dict] = None
_build_failed = False
# Multicore workers construct GatherKernels concurrently; serialize the
# one-time compilation.
_build_lock = threading.Lock()


def jit_requested() -> bool:
    """True when the environment asks for the JIT path (``REPRO_JIT=1``)."""
    return os.environ.get(JIT_ENV_VAR, "") == "1"


def numba_available() -> bool:
    """True when numba can be imported (probed once, cached)."""
    global _numba_ok
    if _numba_ok is None:
        try:
            import numba  # noqa: F401

            _numba_ok = True
        except Exception:
            _numba_ok = False
    return _numba_ok


def jit_enabled() -> bool:
    """True when the JIT path will actually run: requested AND buildable."""
    return jit_requested() and numba_available() and not _build_failed


def jit_status() -> str:
    """One-line status for the CLI / bench metadata."""
    if not jit_requested():
        return "off (REPRO_JIT not set)"
    if not numba_available():
        return "requested but numba unavailable — pure-numpy fallback"
    if _build_failed:
        return "requested but kernel compilation failed — pure-numpy fallback"
    return "active (numba)"


def _build_kernels() -> Optional[dict]:
    """Compile the kernel set once; any failure demotes to fallback."""
    global _build_failed
    try:
        import numba

        @numba.njit(nogil=True, cache=False)
        def gather_step_dense(flat, ncols, state, symbols, out_row):
            for i in range(state.size):
                s = flat[state[i] * ncols + symbols[i]]
                state[i] = s
                out_row[i] = s

        @numba.njit(nogil=True, cache=False)
        def gather_step_compact(flat, ncols, class_of, state, symbols, out_row):
            for i in range(state.size):
                s = flat[state[i] * ncols + class_of[symbols[i]]]
                state[i] = s
                out_row[i] = s

        @numba.njit(nogil=True, cache=False)
        def gather_cols(col_flat, cls_lut, prev, symbols, out_row):
            # Column-major fused gather: cls_lut is pre-scaled by
            # n_states, so the flat index is a single add.
            for i in range(prev.size):
                out_row[i] = col_flat[cls_lut[symbols[i]] + np.int64(prev[i])]

        @numba.njit(nogil=True, cache=False)
        def gather_cols_flag(
            col_flat, cls_lut, flag_flat, prev, symbols, out_row, hit_row
        ):
            # Same gather with the target's match flag riding the same
            # fused index (flag_flat is index-aligned with col_flat).
            for i in range(prev.size):
                idx = cls_lut[symbols[i]] + np.int64(prev[i])
                out_row[i] = col_flat[idx]
                hit_row[i] = flag_flat[idx]

        @numba.njit(nogil=True, cache=False)
        def bitmap_walk(
            bitmaps, offsets, packed, fail, root_row, depth, popcount,
            root, states, syms, out_row,
        ):
            # Per-lane failure-chain walk with popcount-rank delta
            # lookup — the compiled twin of
            # BitmapDeltaSTT.walk_next_states.  Returns the total
            # fail-links taken (the backend's chain_steps metric), or
            # -(lane+1) when a lane exceeds its depth bound so the
            # caller can re-run the numpy walk and raise its canonical
            # IntegrityError.
            total = np.int64(0)
            for i in range(states.size):
                s = np.int64(states[i])
                a = np.int64(syms[i])
                bound = depth[s]
                hops = np.int64(0)
                while True:
                    if s == root:
                        out_row[i] = root_row[a]
                        break
                    b = np.int64(bitmaps[s, a >> 3])
                    if b & (np.int64(1) << (a & 7)):
                        rank = np.int64(0)
                        for c in range(a >> 3):
                            rank += popcount[bitmaps[s, c]]
                        rem = a & 7
                        if rem:
                            rank += popcount[b & ((np.int64(1) << rem) - 1)]
                        out_row[i] = packed[offsets[s] + rank]
                        break
                    s = fail[s]
                    hops += 1
                    total += 1
                    if hops > bound:
                        return -(np.int64(i) + 1)
            return total

        @numba.njit(nogil=True, cache=False)
        def scalar_walk(table, state, data, states_seq):
            for i in range(data.size):
                state = table[state, data[i]]
                states_seq[i] = state
            return state

        # The row-major pair serves only the frozen pre-fused engine
        # that benchmarks/test_engine_speedup.py compares against.
        return {
            "gather_step_dense": gather_step_dense,
            "gather_step_compact": gather_step_compact,
            "gather_cols": gather_cols,
            "gather_cols_flag": gather_cols_flag,
            "bitmap_walk": bitmap_walk,
            "scalar_walk": scalar_walk,
        }
    except Exception:
        _build_failed = True
        return None


def jit_kernels() -> Optional[dict]:
    """The compiled kernel set, or None when the fallback should run.

    Re-checks the environment flag on every call (tests flip it), but
    compiles at most once per process.
    """
    global _kernels
    if not jit_requested() or not numba_available() or _build_failed:
        return None
    if _kernels is None:
        with _build_lock:
            if _kernels is None and not _build_failed:
                _kernels = _build_kernels()
    return _kernels


def _reset_for_tests() -> None:
    """Drop all probe/compile caches (test helper only)."""
    global _numba_ok, _kernels, _build_failed
    _numba_ok = None
    _kernels = None
    _build_failed = False
