"""Tiled streaming execution of the lockstep DFA scan.

The original engine materialized the whole ``(window_len, n_threads)``
byte matrix *and* state trace before extracting matches, so peak memory
was ~5-9× the scanned input — fine at test scale, fatal at the paper's
100-200 MB evaluation sizes.  This module processes the same lockstep
scan in fixed-size *step tiles*: per tile it advances every thread
``tile_len`` steps, fuses match extraction and any counter accumulation
(visit histograms, texture line traffic, valid-byte masks) into the
tile, then discards the tile's state.  Peak memory is
O(n_threads × tile_len) regardless of input size.

Three properties keep the tiled run byte-identical to the monolithic
engine (property-tested in ``tests/core/test_tiled.py``):

* **window reconstruction** — tile window rows are gathered straight
  from the input with clipped positions and the out-of-range suffix
  zeroed, reproducing ``build_windows``'s zero padding without ever
  copying the input;
* **step-axis-only tiling** — tiles split the *step* axis, so the
  (step × half-warp) row grouping every modeled counter is defined
  over is preserved and all row-wise statistics are additive;
* **ordered extraction** — ``np.flatnonzero`` over the C-contiguous
  hit tile is row-major and tiles partition rows in order, so
  concatenated per-tile matches reproduce the monolithic extraction
  order exactly.

The hot path is fully vectorized at tile granularity over a
*column-major* fused transition table: the per-step δ-gather is
``col_flat[cls_lut[byte] + state]`` — one 256-entry LUT take, one add,
one table take — with the target state's match flag gathered through
the **same** staged index, so match testing costs one extra take per
step instead of a separate per-tile pass.  Window bytes for a tile are
one transpose copy of a strided view into the input (zero position
arithmetic for the uniform chunk plans ``plan_chunks`` emits),
validity is never materialized on the match path (it is an analytic
prefix, one ``searchsorted`` per scan), and every tile-sized scratch
buffer is checked out of a thread-local pool that persists across
``scan_tiled`` calls.  When the DFA has fewer than 2**16 states the
state buffers *and* the fused table are staged in uint16, halving the
gather working set; all of it is byte-identical to the reference
engine (values, not storage width, are what every consumer compares).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.compress.backend import DEFAULT_BACKEND
from repro.core.alphabet import STATE_DTYPE
from repro.core.chunking import ChunkPlan, plan_chunks, required_overlap
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.trie import ROOT
from repro.errors import ChunkingError

#: Default steps per tile.  Large enough to amortize per-tile Python
#: overhead, small enough that a tile's working set (≈8 bytes per
#: element) stays cache-friendly; the tile-size ablation bench
#: (benchmarks/test_ablation_tilesize.py) sweeps this.
DEFAULT_TILE_LEN = 256

#: Default owned bytes per lockstep thread for full-text scans.
DEFAULT_CHUNK_LEN = 4096

#: State buffers (and the fused gather tables) downcast to uint16 when
#: the DFA has fewer states than this.  Tests monkeypatch it to force
#: the wide path on small machines.
U16_STATE_LIMIT = 1 << 16


def tile_state_dtype(dfa: DFA) -> np.dtype:
    """The storage dtype tile state buffers use for *dfa*."""
    if dfa.n_states < U16_STATE_LIMIT:
        return np.dtype(np.uint16)
    return np.dtype(STATE_DTYPE)


class _TileBufferPool(threading.local):
    """Thread-local arenas backing the tile-sized scratch buffers."""

    def __init__(self) -> None:
        self.arenas = {}


_POOL = _TileBufferPool()


def _pool_take(name: str, shape: Tuple[int, ...], dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Check an arena out of the pool (or allocate a larger one).

    Returns ``(arena, view)`` where ``view`` is the requested shape cut
    from the arena's head.  Checkout semantics make nested/concurrent
    scans on the same thread safe: a second taker simply allocates a
    fresh arena.  The caller must hand ``arena`` back via
    :func:`_pool_give` when the view is dead.
    """
    dtype = np.dtype(dtype)
    key = (name, dtype.str)
    n = math.prod(shape)
    arena = _POOL.arenas.pop(key, None)
    if arena is None or arena.size < n:
        arena = np.empty(max(n, 1), dtype=dtype)
    return arena, arena[:n].reshape(shape)


def _pool_give(name: str, arena: np.ndarray) -> None:
    """Return an arena to the pool, keeping the largest per slot."""
    key = (name, arena.dtype.str)
    held = _POOL.arenas.get(key)
    if held is None or held.size < arena.size:
        _POOL.arenas[key] = arena


def clear_tile_buffer_pool() -> None:
    """Drop this thread's pooled arenas (tests / memory pressure)."""
    _POOL.arenas.clear()


class GatherKernel:
    """Zero-allocation δ-gather for one step row of the lockstep scan.

    ``dense`` and ``compact`` tables gather through the fused
    column-major layout (:meth:`step_fused`): the gather table is
    transposed so the per-step flat index is ``cls_lut[byte] + state``
    — one LUT take and one add, no multiply — and the target state's
    match flag sits in an index-aligned bool table, so the match test
    costs one extra take on the *same* index.  ``table`` is None for
    the DFA's dense memo
    (:meth:`repro.core.dfa.DFA.dense_fused_tables`), a
    :class:`~repro.core.compact.CompactSTT` for its memo
    (:meth:`~repro.core.compact.CompactSTT.fused_tables`), or a
    ``(col_flat, cls_lut, flag_flat)`` triple the caller owns — a gpu
    launch passes its device's bound copy.  All are staged in
    :func:`tile_state_dtype`, so machines under
    :data:`U16_STATE_LIMIT` states gather uint16 values.

    Under ``REPRO_JIT=1`` (and with numba importable) the fused step
    runs a compiled ``nogil`` loop from :mod:`repro.core.jit` instead —
    same gather, identical output, pinned by ``tests/core/test_jit.py``
    — falling back to the NumPy path automatically otherwise.

    ``table`` may also be a gather *adapter* (an object exposing
    ``alloc(n)`` / ``step_into(state, symbols, out_row)`` and the
    per-state ``match_flags`` — see :mod:`repro.compress.backend`);
    :meth:`step` then delegates to it, which is how the banded and
    bitmap compressed backends plug in without this module importing
    them.
    """

    __slots__ = (
        "adapter", "row_dtype", "col_flat", "cls_lut", "flag_flat", "_sym", "_jit"
    )

    def __init__(self, dfa: DFA, table=None):
        from repro.core.jit import jit_kernels

        self._jit = jit_kernels()
        self._sym = None
        self.row_dtype = tile_state_dtype(dfa)
        self.adapter = table if hasattr(table, "step_into") else None
        self.col_flat = self.cls_lut = self.flag_flat = None
        if self.adapter is None:
            if table is None:
                table = dfa.dense_fused_tables(self.row_dtype)
            elif hasattr(table, "fused_tables"):
                table = table.fused_tables(dfa.stt.match_flags, self.row_dtype)
            self.col_flat, self.cls_lut, self.flag_flat = table

    def alloc(self, n_threads: int) -> None:
        """Size the per-step scratch buffers for *n_threads* lanes."""
        if self.adapter is not None:
            self.adapter.alloc(n_threads)
            return
        # The fused step stages its flat index in _sym.
        self._sym = np.empty(n_threads, dtype=np.int64)

    def step(
        self, state: np.ndarray, symbols: np.ndarray, out_row: np.ndarray
    ) -> None:
        """Adapter step: advance ``state`` (int64, in place) by one row.

        ``out_row`` receives the post-step states (any integer dtype
        wide enough for the state ids).
        """
        self.adapter.step_into(state, symbols, out_row)

    def step_fused(
        self,
        prev: np.ndarray,
        symbols: np.ndarray,
        out_row: np.ndarray,
        hit_row: Optional[np.ndarray] = None,
    ) -> None:
        """Fused column-major δ-gather (and match test) for one step row.

        ``out_row = col_flat[cls_lut[symbols] + prev]`` — two takes and
        an add, the minimum dispatch count for a table-driven step.
        ``prev`` is the previous step's state row (the int64 carry
        vector on a tile's first step, a row of the possibly-uint16
        tile state buffer afterwards); ``out_row`` must have the fused
        table's dtype so the gather lands without a cast.  When
        ``hit_row`` (bool) is given, the target states' match flags are
        gathered through the *same* staged index — one extra take per
        step, not a separate per-tile flag pass.

        Fused kernels only (``adapter`` is None); under
        ``REPRO_JIT=1`` the whole row runs as one compiled ``nogil``
        loop.
        """
        if self._jit is not None:
            if hit_row is None:
                self._jit["gather_cols"](
                    self.col_flat, self.cls_lut, prev, symbols, out_row
                )
            else:
                self._jit["gather_cols_flag"](
                    self.col_flat,
                    self.cls_lut,
                    self.flag_flat,
                    prev,
                    symbols,
                    out_row,
                    hit_row,
                )
            return
        np.take(self.cls_lut, symbols, out=self._sym)
        np.add(self._sym, prev, out=self._sym)
        np.take(self.col_flat, self._sym, out=out_row)
        if hit_row is not None:
            np.take(self.flag_flat, self._sym, out=hit_row)


@dataclass
class TileView:
    """One step tile of a running lockstep scan.

    All array fields are views into buffers **reused across tiles** —
    sinks must copy anything they keep past their ``on_tile`` call.

    Attributes
    ----------
    j0, j1:
        Step range of this tile (``windows[j0:j1]`` of the monolithic
        run).
    states_after:
        ``(j1 - j0, n_threads)`` — DFA state after each step's byte
        (uint16 storage for small machines; values are what matter).
    valid:
        Same shape, bool — True where the byte lies inside the input.
        None when the producer was asked to skip it
        (``want_valid=False``); validity is then recoverable
        analytically from the plan (threads valid at step ``j`` are
        exactly those with ``plan.starts[t] + j < plan.n``, a prefix).
    windows:
        The tile's byte rows (zero in the padded tail), or None unless
        a sink declared ``needs_windows``.
    fetched:
        States whose STT row was *read* at each step (row ``j0`` is the
        carry-in state vector), or None unless a sink declared
        ``needs_fetched``.
    plan:
        The chunk geometry of the scan.
    hits:
        Same shape bool — match flag of ``states_after``, or None
        unless requested via ``want_hits``.  Gathered inside the step
        on the fused path, so requesting it costs one extra take per
        step, not a separate pass.  :func:`iter_dfa_tiles` does not
        mask it by validity; :func:`scan_tiled` clears the cells past
        the input before its sinks see the tile.
    """

    j0: int
    j1: int
    states_after: np.ndarray
    valid: Optional[np.ndarray]
    windows: Optional[np.ndarray]
    fetched: Optional[np.ndarray]
    plan: ChunkPlan
    hits: Optional[np.ndarray] = None

    def positions(self) -> np.ndarray:
        """Global byte position of each (step, thread) cell (fresh array)."""
        steps = np.arange(self.j0, self.j1, dtype=np.int64)
        return self.plan.starts[None, :] + steps[:, None]


def iter_dfa_tiles(
    dfa: DFA,
    data: np.ndarray,
    plan: ChunkPlan,
    *,
    tile_len: int = DEFAULT_TILE_LEN,
    stt_backend: str = DEFAULT_BACKEND,
    gather_table=None,
    init_states: Optional[np.ndarray] = None,
    want_windows: bool = False,
    want_fetched: bool = False,
    want_hits: bool = False,
    want_valid: bool = True,
) -> Iterator[TileView]:
    """Advance every chunk through the DFA, yielding one tile at a time.

    Window rows are gathered from *data* on the fly — for the uniform
    chunk strides :func:`repro.core.chunking.plan_chunks` produces,
    each tile is one transpose copy of a strided view into the input
    (**zero** position arithmetic); irregular plans fall back to one
    clipped 2-D take per tile — so nothing proportional to the input
    is ever copied.  ``stt_backend`` names the table the δ-gather
    reads (see :mod:`repro.compress.backend`; every backend gathers
    the same transition function).  ``gather_table`` supplies its
    bytes: by default the DFA's memoized
    :meth:`~repro.core.dfa.DFA.gather_table`, for a gpu launch the
    device's bound copy
    (:meth:`~repro.gpu.device.Device.gather_table`), which the caller
    must have bound for ``stt_backend``.
    ``init_states`` seeds the per-thread carry-in
    state (default: all ROOT) — :func:`scan_tiled` uses it to thread
    a stream's inter-feed state through lane 0.  ``want_hits``
    requests per-cell match flags, gathered inside the fused step;
    ``want_valid=False`` skips materializing the validity mask for
    consumers (like :func:`scan_tiled`) that filter analytically.
    """
    if data.dtype != np.uint8 or data.ndim != 1:
        raise ChunkingError("data must be a 1-D uint8 array (use alphabet.encode)")
    if data.size != plan.n:
        raise ChunkingError(
            f"data length {data.size} does not match plan.n {plan.n}"
        )
    if tile_len <= 0:
        raise ChunkingError(f"tile_len must be > 0, got {tile_len}")

    n = plan.n
    nt = plan.n_chunks
    wl = plan.window_len
    starts = plan.starts
    diffs = np.diff(starts)
    if np.any(diffs < 0):
        raise ChunkingError("plan.starts must be non-decreasing")
    remaining = n - starts  # descending; thread t is valid while j < remaining[t]
    uniform = nt < 2 or bool(np.all(diffs == diffs[0]))
    stride = int(diffs[0]) if nt > 1 else 0

    if gather_table is None:
        gather_table = dfa.gather_table(stt_backend)
    gather = GatherKernel(dfa, gather_table)
    gather.alloc(nt)
    use_fused = gather.adapter is None
    state = np.zeros(nt, dtype=np.int64)
    if init_states is not None:
        if init_states.shape != (nt,):
            raise ChunkingError(
                f"init_states must have shape ({nt},); got {init_states.shape}"
            )
        state[:] = init_states

    # Adapter backends step through step_into, so their match test is
    # a fused 2-D take over the adapter's state-indexed flags per tile.
    flag_lut = None if use_fused else gather.adapter.match_flags

    tile_len = min(tile_len, wl)
    row_dtype = gather.row_dtype
    states_arena, states_buf = _pool_take("tile_states", (tile_len, nt), row_dtype)
    if uniform:
        # Column-major window buffer: the strided-view window build
        # below then copies thread-by-thread with both sides contiguous
        # (a memcpy per thread column) instead of a true byte transpose
        # — ~65× faster at paper tile shapes.  Step rows come out
        # strided, which the take-based gather absorbs for ~1µs/step.
        win_arena, win_cols = _pool_take("tile_windows", (nt, tile_len), np.uint8)
        win_buf = win_cols.T
    else:
        win_arena, win_buf = _pool_take("tile_windows", (tile_len, nt), np.uint8)
    # Irregular plans zero the padded window tail through the mask, so
    # they need the buffer even when the caller skipped validity.
    if want_valid or not uniform:
        valid_arena, valid_buf = _pool_take("tile_valid", (tile_len, nt), np.bool_)
    else:
        valid_arena = valid_buf = None
    if want_hits:
        hit_arena, hit_buf = _pool_take("tile_hits", (tile_len, nt), np.bool_)
    else:
        hit_arena = hit_buf = None
    if want_fetched:
        fetch_arena, fetch_buf = _pool_take(
            "tile_fetched", (tile_len, nt), row_dtype
        )
    else:
        fetch_arena = fetch_buf = None
    steps = np.arange(wl, dtype=np.int64)
    clip = max(n - 1, 0)

    try:
        for j0 in range(0, wl, tile_len):
            j1 = min(j0 + tile_len, wl)
            ts = j1 - j0
            sb = states_buf[:ts]
            wt = win_buf[:ts]
            vb = valid_buf[:ts] if valid_buf is not None else None
            hb = hit_buf[:ts] if hit_buf is not None else None
            if vb is not None:
                np.less(steps[j0:j1, None], remaining[None, :], out=vb)
            if uniform:
                # Strided window build: threads whose whole tile window
                # is in-bounds form a prefix (starts ascend), and that
                # prefix is filled with one transpose copy of a strided
                # view into the input — no position arithmetic, no
                # clip, no mask.  The few tail threads get an explicit
                # copy + zero fill, reproducing build_windows' padding.
                tb = int(np.searchsorted(starts, n - j1, side="right"))
                if tb:
                    off = int(starts[0]) + j0
                    src = as_strided(
                        data[off:], shape=(tb, ts), strides=(stride, 1)
                    )
                    wt[:, :tb] = src.T
                for t in range(tb, nt):
                    base = int(starts[t]) + j0
                    avail = min(max(n - base, 0), ts)
                    wt[:avail, t] = data[base : base + avail]
                    wt[avail:, t] = 0
            elif n:
                # Irregular plan: clipped 2-D gather through a pooled
                # int64 position arena, then the invalid tail (threads
                # whose window has run past the input) is zeroed
                # through the valid mask — exactly build_windows'
                # zero padding.
                pos_arena, pos = _pool_take("tile_i64", (ts, nt), np.int64)
                np.add(starts[None, :], steps[j0:j1, None], out=pos)
                np.minimum(pos, clip, out=pos)
                np.take(data, pos, out=wt)
                _pool_give("tile_i64", pos_arena)
                np.multiply(wt, vb, out=wt)
            else:
                wt[...] = 0
            if want_fetched:
                fetch_buf[0] = state  # carry-in: the rows *read* at step j0
            if use_fused:
                prev = state
                if hb is None:
                    for r in range(ts):
                        gather.step_fused(prev, wt[r], sb[r])
                        prev = sb[r]
                else:
                    for r in range(ts):
                        gather.step_fused(prev, wt[r], sb[r], hb[r])
                        prev = sb[r]
                state[:] = prev
            else:
                for r in range(ts):
                    gather.step(state, wt[r], sb[r])
                if hb is not None:
                    # np.take silently casts its index array to intp;
                    # staging the cast into the pooled int64 arena
                    # keeps the flag gather allocation-free (one copy,
                    # one 2-D take).
                    idx_arena, idx = _pool_take("tile_i64", (ts, nt), np.int64)
                    np.copyto(idx, sb, casting="safe")
                    np.take(flag_lut, idx, out=hb)
                    _pool_give("tile_i64", idx_arena)
            if want_fetched and ts > 1:
                fetch_buf[1:ts] = sb[: ts - 1]
            yield TileView(
                j0=j0,
                j1=j1,
                states_after=sb,
                valid=vb if want_valid else None,
                windows=wt if want_windows else None,
                fetched=fetch_buf[:ts] if want_fetched else None,
                plan=plan,
                hits=hb,
            )
    finally:
        _pool_give("tile_states", states_arena)
        _pool_give("tile_windows", win_arena)
        if valid_arena is not None:
            _pool_give("tile_valid", valid_arena)
        if hit_arena is not None:
            _pool_give("tile_hits", hit_arena)
        if fetch_arena is not None:
            _pool_give("tile_fetched", fetch_arena)


@dataclass
class TiledScanResult:
    """Outcome of one tiled scan."""

    matches: MatchResult
    raw_hits: int
    bytes_scanned: int
    n_tiles: int
    plan: ChunkPlan


def scan_tiled(
    dfa: DFA,
    data: np.ndarray,
    *,
    plan: Optional[ChunkPlan] = None,
    chunk_len: int = DEFAULT_CHUNK_LEN,
    overlap: Optional[int] = None,
    tile_len: int = DEFAULT_TILE_LEN,
    stt_backend: str = DEFAULT_BACKEND,
    gather_table=None,
    sinks: Sequence = (),
    init_state: int = ROOT,
) -> TiledScanResult:
    """Full tiled scan: plan, tile, extract matches, feed sinks.

    Match extraction (flag test, CSR output expansion, overlap
    ownership) is fused into each tile, so nothing proportional to the
    input is retained: the hit cells' flat indices give each hit's step
    and thread, and :meth:`~repro.core.dfa.DFA.expand_outputs` expands
    their states.  ``sinks`` are objects with an ``on_tile(tile)``
    method; a sink class sets ``needs_windows`` / ``needs_fetched``
    to request those tile fields.

    ``init_state`` is the carry-in state of lane 0 (every other lane
    starts at the root): a scan entered mid-stream reports a match
    that began before ``data`` where it ends, in lane 0, whose
    ownership has no lower bound.

    ``stt_backend`` (``dense | compact | banded | bitmap`` — see
    :mod:`repro.compress.backend`) names the table the δ-gather reads;
    the default ``compact`` table is exactly equivalent to the dense
    STT and markedly faster once the dense STT outgrows cache.
    ``gather_table`` supplies that table's bytes (default: the DFA's
    memo; see :func:`iter_dfa_tiles`).
    """
    if plan is None:
        if overlap is None:
            overlap = required_overlap(dfa.patterns.max_length)
        plan = plan_chunks(data.size, chunk_len, overlap)

    want_windows = any(getattr(s, "needs_windows", False) for s in sinks)
    want_fetched = any(getattr(s, "needs_fetched", False) for s in sinks)
    want_valid = bool(sinks)

    # Validity is analytic: starts ascend, so the threads valid at step
    # j are exactly the prefix t < kc[j] where kc[j] counts threads
    # with remaining[t] > j.  One searchsorted per scan replaces the
    # per-tile mask materialization + count_nonzero of the old engine.
    remaining = plan.n - plan.starts  # non-increasing
    kc = np.searchsorted(
        -remaining, -np.arange(plan.window_len, dtype=np.int64), side="left"
    )
    # Threads whose window runs past the input (a suffix of threads),
    # each with its first step past the input.
    short = [
        (t, int(remaining[t]))
        for t in np.flatnonzero(remaining < plan.window_len).tolist()
    ]

    init_states = None
    if init_state != ROOT:
        init_states = np.zeros(plan.n_chunks, dtype=np.int64)
        init_states[0] = init_state

    ends_parts = []
    pids_parts = []
    raw_hits = 0
    bytes_scanned = 0
    n_tiles = 0
    for tile in iter_dfa_tiles(
        dfa,
        data,
        plan,
        tile_len=tile_len,
        stt_backend=stt_backend,
        gather_table=gather_table,
        init_states=init_states,
        want_windows=want_windows,
        want_fetched=want_fetched,
        want_hits=True,
        want_valid=want_valid,
    ):
        n_tiles += 1
        j0 = tile.j0
        bytes_scanned += int(kc[j0 : tile.j1].sum())

        # Padded cells step on byte 0 and can land in a match state
        # when a pattern contains NUL: clear the few past the input.
        hits = tile.hits
        for t, r in short:
            if r < tile.j1:
                hits[max(r - j0, 0) :, t] = False
        # Row-major flat indices: tiles partition the steps in order,
        # so per-tile matches concatenate in the monolithic order.
        flat = np.flatnonzero(hits)
        raw_hits += int(flat.size)
        if flat.size:
            states = np.take(tile.states_after, flat)
            steps, threads = np.divmod(flat, plan.n_chunks)
            ends = plan.starts[threads]
            ends += steps
            ends += j0
            # Only overlap rows can hold an output that starts past its
            # lane's chunk: a lane started at the root is at trie depth
            # <= j + 1 after step j, so nothing it reports starts before
            # its chunk (lane 0's carried state has no lower bound), and
            # hits past the input are cleared above.  Row j >= chunk_len
            # owns exactly the outputs longer than j + 1 - chunk_len.
            # Rows ascend in flat order, so the overlap rows are a suffix.
            first = int(np.searchsorted(steps, plan.chunk_len - j0))
            del flat, threads
            source, pids = dfa.expand_outputs(states)
            del states
            ends = ends[source]
            cut = int(np.searchsorted(source, first))
            tail = steps[source[cut:]]
            tail += j0 + 1 - plan.chunk_len
            own = dfa.pattern_lengths[pids[cut:]] > tail
            ends_parts += [ends[:cut], ends[cut:][own]]
            pids_parts += [pids[:cut], pids[cut:][own]]
            del ends, pids, steps, source, tail, own

        for sink in sinks:
            sink.on_tile(tile)

    if ends_parts:
        matches = MatchResult(
            np.concatenate(ends_parts), np.concatenate(pids_parts)
        )
    else:
        matches = MatchResult.empty()
    return TiledScanResult(
        matches=matches,
        raw_hits=raw_hits,
        bytes_scanned=bytes_scanned,
        n_tiles=n_tiles,
        plan=plan,
    )


def feed_sinks(
    dfa: DFA,
    data: np.ndarray,
    sinks: Sequence,
    *,
    chunk_len: int = DEFAULT_CHUNK_LEN,
) -> None:
    """Walk *data* through the DFA only to feed *sinks* their tiles.

    The tiles are the ones :func:`scan_tiled` with the same
    ``chunk_len`` and *sinks* hands its sinks — same chunk plan, tile
    length and table — so every sink total is identical, but no match
    is extracted: no flag gather, output expansion, ownership filter
    or canonicalization, which a caller that keeps only sink totals
    (the CPU cost model's line histogram, the serial visit histogram)
    would drop.
    """
    plan = plan_chunks(
        data.size, chunk_len, required_overlap(dfa.patterns.max_length)
    )
    for tile in iter_dfa_tiles(
        dfa,
        data,
        plan,
        want_windows=any(getattr(s, "needs_windows", False) for s in sinks),
        want_fetched=any(getattr(s, "needs_fetched", False) for s in sinks),
    ):
        for sink in sinks:
            sink.on_tile(tile)


class StateVisitHistogram:
    """Sink: per-state STT-row fetch counts (== trace.visit_histogram).

    Exact under tiling: the histogram is a sum of per-tile bincounts
    over the valid fetched states, and tile rows partition the step
    axis.
    """

    needs_fetched = True
    needs_windows = False

    def __init__(self, n_states: int):
        self.hist = np.zeros(n_states, dtype=np.int64)

    def on_tile(self, tile: TileView) -> None:
        """Accumulate one tile's valid fetches into the histogram."""
        fetched = tile.fetched[tile.valid]
        if fetched.size:
            self.hist += np.bincount(fetched, minlength=self.hist.size)
