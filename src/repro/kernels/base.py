"""Shared kernel infrastructure: the host program, costs, texture traffic.

Every simulated kernel runs the paper's host program once, through
:func:`run_on_device`: copy the input to global memory, bind the
backend's gather tables to texture, verify the bound copy, launch,
release.  Inside the launch each kernel runs two decoupled passes:

1. **measure** — the lockstep DFA engine produces the exact match set
   plus every countable memory event (transactions, bank-conflict
   degrees, two-level texture traffic).  For the AC kernels this is
   :func:`scan_segment`; PFAC's single walk feeds the same
   :class:`TextureClassifier`.  Nothing is kept after the launch: a
   measurement lives as long as the result its caller holds;
2. **price** — the measured events are assembled into a
   :class:`~repro.gpu.latency.KernelCost` using the instruction-mix
   constants of :class:`CostParams` (every kernel's texture terms
   through :func:`price_texture`) and priced by the device.

The split lets pricing-only knobs (the shared kernel's bank scheme and
STT placement) price one measurement several ways inside one launch
(:func:`repro.kernels.shared_mem.run_shared_variants`, which the bench
runner uses for a cell's shared variants).

Texture model (paper Section IV-B-2, plus the GT200's real hierarchy):
each SM has a small L1 texture cache and the device shares a ~256 KB
texture L2.  For every half-warp STT fetch instruction we classify each
lane's line as L1-hit / L2-hit / DRAM and charge the instruction a
**mean-lane** stall (the texture pipeline services the lanes' misses
concurrently; the warp's expected wait is the average outstanding
severity, bounded between the optimistic all-overlap and pessimistic
max-lane readings).  Distinct DRAM lines additionally pay a bus
transaction and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.compress.backend import BackendCost, cost_of, resolve_backend
from repro.core.alphabet import STT_COLUMNS, encode
from repro.core.chunking import ChunkPlan
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import scan_tiled
from repro.errors import LaunchError, MemoryModelError
from repro.gpu.config import DeviceConfig, Occupancy
from repro.gpu.counters import EventCounters, TimingBreakdown
from repro.gpu.device import Device
from repro.gpu.geometry import LaunchConfig
from repro.gpu.texture import stt_line_ids
from repro.obs import coalesce


@dataclass(frozen=True)
class CostParams:
    """Instruction-mix constants of the AC inner loops (warp instructions).

    ``instr_per_iter_*`` counts the warp instructions issued per
    input-byte iteration (address arithmetic, the input-byte load
    instruction itself, the texture fetch issue, match-flag test, state
    move, loop bookkeeping).  Values are in the range a hand-written
    CUDA AC kernel disassembles to; the calibration report
    (EXPERIMENTS.md) records the final choices, which are then held
    fixed across all experiments.
    """

    #: Inner-loop warp instructions per byte, global-memory-only kernel.
    instr_per_iter_global: float = 12.0
    #: Inner-loop warp instructions per byte, shared-memory kernel.
    instr_per_iter_shared: float = 10.0
    #: Staging-loop warp instructions per cooperative load/store pair.
    instr_per_staged_word: float = 3.0
    #: Warp instructions to format and write one raw match record.
    instr_per_match_write: float = 10.0
    #: __syncthreads() cost per block staging round.
    sync_cycles_per_block: float = 60.0
    #: Texture-cache capacity efficiency for the hot-set model.
    tex_capacity_efficiency: float = 0.8
    #: Cross-warp bank-interference coefficient (see Notes).
    bank_interference_beta: float = 4.0
    #: Extra warp ALU per fetch for the banded backend (band test +
    #: select — branch-free, so exactly two ops).
    instr_per_band_check: float = 2.0
    #: Extra warp ALU per fetch for the bitmap backend's popcount-rank
    #: (bit test, prefix popcount, offset add — GPUs have a hardware
    #: popc, so this stays small).
    instr_per_popcount_rank: float = 6.0
    #: Warp ALU per failure-chain hop of the bitmap backend (fail-link
    #: load address math + bit re-test per hop).
    instr_per_chain_step: float = 4.0
    #: Floor on the modeled texture-footprint relief: even an extremely
    #: compressed table still pays cold misses and line-granule
    #: overfetch, so the stt-traffic scale factor never drops below
    #: this.
    tex_footprint_floor: float = 0.10

    # Notes on ``bank_interference_beta``: the paper explains Fig. 23's
    # growth ("the speedup of our scheme is larger as the number of
    # patterns increases ... the chances of the shared memory bank
    # conflicts increases") by deeper multithreading under texture-miss
    # pressure increasing conflict exposure.  We model that stated
    # mechanism explicitly: the serialization *excess* of a conflicting
    # layout is amplified by
    # ``1 + beta * dram_pressure * (resident_warps - 1)``
    # where ``dram_pressure`` is the measured probability that a texture
    # instruction stalls to DRAM.  A conflict-free layout has zero
    # excess and is unaffected, exactly as in the paper.


@dataclass(frozen=True)
class TextureTraffic:
    """Two-level texture accounting of one kernel run.

    Attributes
    ----------
    accesses:
        Half-warp texture fetch instructions issued.
    dependent_latency_cycles:
        Total severity-weighted stall cycles across those instructions
        (mean-lane model; before MWP overlap).
    l2_line_requests:
        Distinct L1-missing lines served on chip by the texture L2.
    dram_line_requests:
        Distinct lines that had to come from device memory (these pay
        bus transactions + bandwidth).
    dram_instr_rate:
        Fraction of fetch instructions with at least one DRAM lane —
        the multithreading-pressure input of the Fig. 23 interference
        term.
    lane_l1_hit_rate:
        Per-lane L1 hit fraction (reporting).
    """

    accesses: int
    dependent_latency_cycles: float
    l2_line_requests: int
    dram_line_requests: int
    dram_instr_rate: float
    lane_l1_hit_rate: float
    #: Texture line size in bytes (``config.texture_cache.line_bytes``
    #: of the classifying device): the unit of every line count above.
    line_bytes: int
    #: Distinct lines touched per instruction regardless of cache state
    #: — the traffic an *uncached* STT placement would pay (used by the
    #: texture-placement ablation).
    total_line_requests: int = 0

    @property
    def dram_bytes(self) -> int:
        """DRAM fill traffic: one texture line per DRAM line request."""
        return self.dram_line_requests * self.line_bytes


def backend_footprint_relief(backend_cost, params: CostParams) -> float:
    """Texture-traffic scale factor for a compressed STT backend.

    ``dense`` and ``compact`` return 1.0: the counter model has always
    computed texture line traffic over the dense STT layout for both
    (PR 5's invariance contract), so neither claims relief.  The
    genuinely compressed families (``banded``, ``bitmap``) scale the
    modeled stt-fetch traffic by their resident-footprint ratio — a
    table several times smaller keeps proportionally more of its hot
    set cache-resident — floored at ``tex_footprint_floor`` (cold
    misses and line-granule overfetch never vanish).

    Applied to the *priced* stt traffic only; the event counters stay
    backend-invariant, which is what lets the differential harness
    assert counter equality across every backend.
    """
    if backend_cost.backend not in ("banded", "bitmap"):
        return 1.0
    return max(backend_cost.footprint_ratio, params.tex_footprint_floor)


def backend_compute_cycles(
    backend_cost: BackendCost,
    accesses: int,
    config: DeviceConfig,
    params: CostParams,
) -> float:
    """Extra issue cycles a compressed backend's lookup costs per run.

    ``accesses`` counts half-warp texture fetch instructions.
    ``banded`` pays a branch-free band test per fetch instruction;
    ``bitmap`` pays a popcount-rank per fetch plus the data-dependent
    failure-chain walk — each hop re-issues address math *and* another
    texture fetch, priced at the measured mean walk length
    (``backend_cost.avg_chain_steps``, an exact per-scan aggregate, not
    an estimate).
    """
    cpwi = config.cycles_per_warp_instruction
    if backend_cost.backend == "banded":
        return accesses * params.instr_per_band_check * cpwi
    if backend_cost.backend == "bitmap":
        rank = accesses * params.instr_per_popcount_rank * cpwi
        walk = backend_cost.avg_chain_steps * accesses * (
            params.instr_per_chain_step * cpwi + config.texture_hit_cycles
        )
        return rank + walk
    return 0.0


@dataclass(frozen=True)
class TexturePrice:
    """The texture terms of one kernel's cost, priced once for every kernel.

    ``hit_cycles`` is the issue cost of the fetch instructions and
    ``backend_cycles`` a compressed backend's extra ALU and chain walk
    (:func:`backend_compute_cycles`); ``dependent_cycles``,
    ``dram_lines`` and ``dram_bytes`` are the mean-lane stall, DRAM
    line requests and DRAM fill bytes, each scaled by ``relief``
    (:func:`backend_footprint_relief`).  Each kernel adds these to its
    own terms in its own order.
    """

    relief: float
    hit_cycles: float
    backend_cycles: float
    dependent_cycles: float
    dram_lines: float
    dram_bytes: float


def price_texture(
    tex: TextureTraffic,
    backend_cost: BackendCost,
    config: DeviceConfig,
    params: CostParams,
) -> TexturePrice:
    """Price a run's :class:`TextureTraffic` under its backend's cost."""
    relief = backend_footprint_relief(backend_cost, params)
    return TexturePrice(
        relief=relief,
        hit_cycles=tex.accesses * config.texture_hit_cycles,
        backend_cycles=backend_compute_cycles(
            backend_cost, tex.accesses, config, params
        ),
        dependent_cycles=tex.dependent_latency_cycles * relief,
        dram_lines=tex.dram_line_requests * relief,
        dram_bytes=tex.dram_bytes * relief,
    )


def hot_line_set_from_counts(
    uniq: np.ndarray, counts: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """Hot-set selection from a (distinct-line, count) histogram.

    ``uniq`` must be in ascending line-id order with ``counts``
    aligned — the order :func:`numpy.unique` produces and the order a
    dense line histogram's nonzero entries produce, so both the
    monolithic and the tiled accounting paths rank ties identically
    and select byte-identical hot sets.
    """
    if uniq.size == 0:
        return np.empty(0, dtype=np.int64)
    if uniq.size <= capacity_lines:
        return np.sort(uniq)
    order = np.argsort(counts)[::-1][:capacity_lines]
    return np.sort(uniq[order])


def hot_line_set(
    line_ids: np.ndarray, valid: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """The cache-resident line set under the hot-set LRU approximation.

    Returns the ``capacity_lines`` most-frequently-fetched line ids
    (sorted), computed from the *valid* fetches of the trace.
    """
    flat = line_ids[valid]
    if flat.size == 0:
        return np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(flat, return_counts=True)
    return hot_line_set_from_counts(uniq, counts, capacity_lines)


def _stt_line_id_limit(n_states: int, line_bytes: int) -> int:
    """One past the largest STT texture line id (for histogram sizing)."""
    return (n_states * STT_COLUMNS * 4 - 1) // line_bytes + 1


def _tile_line_ids(tile, line_bytes: int, n_states: int) -> np.ndarray:
    """The texture line of each of a tile's STT fetches.

    ``tile.windows`` is a transposed view of a column-major buffer;
    one row-major copy first keeps the line-id arithmetic in step with
    the row-major ``tile.fetched``: about 1.4× faster on the kernels'
    79 × 15,625 paper_gpu tiles and 2.5× on the CPU model's 256 × 4,096
    tiles, with the same ids.
    """
    return stt_line_ids(
        tile.fetched, np.ascontiguousarray(tile.windows),
        line_bytes=line_bytes, n_states=n_states,
    )


class TextureLineHistogram:
    """Tile sink: dense per-line fetch histogram of the STT texture.

    The CPU cost model's sink (``ExperimentRunner._serial``, the swap
    bench): its nonzero entries are, by construction, the exact
    ``(uniq, counts)`` pair ``np.unique`` returns over the monolithic
    trace.  The GPU kernels rank lines with
    :class:`TextureClassifier` instead.
    """

    needs_fetched = True
    needs_windows = True

    def __init__(self, n_states: int, line_bytes: int):
        self.n_states = n_states
        self.line_bytes = line_bytes
        self.hist = np.zeros(
            _stt_line_id_limit(n_states, line_bytes), dtype=np.int64
        )

    def on_tile(self, tile) -> None:
        """Accumulate one tile's line visits."""
        flat = _tile_line_ids(tile, self.line_bytes, self.n_states)[tile.valid]
        if flat.size:
            self.hist += np.bincount(flat, minlength=self.hist.size)

    def nonzero(self):
        """The (uniq, counts) pair of the accumulated histogram."""
        uniq = np.flatnonzero(self.hist)
        return uniq, self.hist[uniq]


#: Kept half-warp rows per classification block: bounds the block's
#: transients (the flag gather's index cast and the lane masks).
_CLASSIFY_ROWS = 1 << 14

#: Consecutive kept blocks are merged into one of at least this many
#: bytes of line ids.  PFAC keeps one small block per thread batch and
#: depth; scattered over the heap, their pages stayed resident after
#: the classifier was freed (the paper-scale grid peaked 450 MB
#: higher), while a merged block is returned whole.
_MERGE_BYTES = 64 << 20


class TextureClassifier:
    """Tile sink: two-level texture accounting in one walk of the trace.

    Every GPU kernel's one texture sink.  A half-warp row — one step of
    ``lanes`` consecutive threads — is one fetch instruction.
    :meth:`on_tile` (the AC kernels' lockstep tiles) and
    :meth:`on_lanes` (PFAC's live threads) compute line ids once and
    keep, per row with at least one valid lane, that row's valid line
    ids sorted, plus its lane count: 4 B per valid lane with int32 line
    ids and 1 B per kept row.  Rows with no valid lane are dropped.  A
    row never straddles two calls, so all row-wise counts are
    additive.  After the scan, :meth:`ranking` merges each block's
    sorted line histogram, :meth:`hot_sets` fixes both hot sets from
    that one ranking, and :meth:`classify` gathers each lane's flags
    (bit 0 L1-hot, bit 1 L2-hot, read independently so hot sets need
    not nest) once; the first occurrence of a line in a sorted row is
    one distinct line request.  :meth:`finish` runs all three.  The
    resulting :class:`TextureTraffic` is byte-identical to classifying
    the whole trace at once.
    """

    needs_fetched = True
    needs_windows = True

    def __init__(self, n_states: int, line_bytes: int, lanes: int = 16):
        self.n_states = n_states
        self.line_bytes = line_bytes
        self.lanes = lanes
        #: ``(ids, counts)`` blocks of whole rows, in call order: the
        #: kept rows' sorted valid line ids, concatenated, and each
        #: row's lane count.  Small consecutive blocks are merged.
        self.blocks = []
        self._merged = 0  # blocks before this index are not merged again
        self.accesses = 0
        self.total_valid = 0

    def on_tile(self, tile) -> None:
        """Keep one tile's (step × half-warp) rows of valid line ids."""
        line_ids = _tile_line_ids(tile, self.line_bytes, self.n_states)
        n_steps, n_threads = line_ids.shape
        width = -(-n_threads // self.lanes) * self.lanes
        rows = np.full((n_steps, width), -1, dtype=line_ids.dtype)
        np.copyto(rows[:, :n_threads], line_ids, where=tile.valid)
        del line_ids
        self._keep(rows.reshape(-1, self.lanes))

    def on_lanes(
        self, fetched: np.ndarray, windows: np.ndarray, threads: np.ndarray
    ) -> None:
        """Keep the rows of one step's live lanes.

        Lane ``i`` is thread ``threads[i]`` (ascending) and fetches
        ``STT[fetched[i]][windows[i]]``; its row is its thread's
        half-warp, so only the rows holding a live lane are built.
        """
        if threads.size == 0:
            return
        line_ids = stt_line_ids(
            fetched, windows, line_bytes=self.line_bytes, n_states=self.n_states
        )
        half_warp = threads // self.lanes
        new_row = np.empty(threads.size, dtype=bool)
        new_row[0] = True
        np.not_equal(half_warp[1:], half_warp[:-1], out=new_row[1:])
        row = np.cumsum(new_row)
        row -= 1
        rows = np.full((int(row[-1]) + 1, self.lanes), -1, dtype=line_ids.dtype)
        rows[row, threads % self.lanes] = line_ids
        self._keep(rows)

    def _keep(self, rows: np.ndarray) -> None:
        """Sort -1-padded ``(rows, lanes)`` line ids; keep the valid ones."""
        rows.sort(axis=1)
        valid = rows >= 0
        ids = rows[valid]
        counts = valid.sum(axis=1, dtype=np.uint8)
        counts = counts[counts > 0]
        self.blocks.append((ids, counts))
        self.accesses += int(counts.size)
        self.total_valid += int(ids.size)
        tail = self.blocks[self._merged :]
        if len(tail) > 1 and sum(b.nbytes for b, _ in tail) >= _MERGE_BYTES:
            del self.blocks[self._merged :]
            self.blocks.append(tuple(map(np.concatenate, zip(*tail))))
            self._merged = len(self.blocks)

    def ranking(self):
        """The ``(uniq, counts)`` line histogram of the valid fetches.

        Ascending line ids with int64 counts — the arrays
        ``np.unique(..., return_counts=True)`` returns over the valid
        trace — merged from one sorted histogram per kept block, so at
        most one block's ids are copied at a time.
        """
        uniq_parts, count_parts = [], []
        for ids, _ in self.blocks:
            if ids.size:
                ids = np.sort(ids)
                starts = _run_starts(ids)
                uniq_parts.append(ids[starts])
                count_parts.append(np.diff(starts, append=ids.size))
        if not uniq_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        uniq = np.concatenate(uniq_parts)
        counts = np.concatenate(count_parts)
        if len(uniq_parts) > 1:
            order = np.argsort(uniq, kind="stable")
            uniq = uniq[order]
            starts = _run_starts(uniq)
            uniq = uniq[starts]
            counts = np.add.reduceat(counts[order], starts)
        return uniq.astype(np.int64), counts

    def hot_sets(self, config: DeviceConfig, params: CostParams):
        """(hot_l1, hot_l2) under the hot-set LRU approximation.

        Each level holds its capacity's most-fetched lines, sorted —
        :func:`hot_line_set_from_counts` of :meth:`ranking` — with one
        ``argsort`` of the counts ranking both levels, so L1-hot ⊂
        L2-hot by construction.
        """
        uniq, counts = self.ranking()
        l1_capacity = int(
            config.texture_cache.n_lines * params.tex_capacity_efficiency
        )
        l2_capacity = int(
            (config.texture_l2_bytes // self.line_bytes)
            * params.tex_capacity_efficiency
        )
        order = np.argsort(counts)[::-1]
        return tuple(
            np.sort(uniq[order[:capacity]])
            for capacity in (l1_capacity, l2_capacity)
        )

    def classify(
        self, hot_l1: np.ndarray, hot_l2: np.ndarray, config: DeviceConfig
    ) -> TextureTraffic:
        """Classify every kept fetch against the given hot sets."""
        flag_lut = np.zeros(
            _stt_line_id_limit(self.n_states, self.line_bytes), dtype=np.uint8
        )
        flag_lut[hot_l1] |= 1
        flag_lut[hot_l2] |= 2
        l2_lines = dram_lines = total_lines = dram_instr = 0
        n_l2_lanes = n_dram_lanes = 0
        for ids, counts in self.blocks:
            ends = np.cumsum(counts, dtype=np.int64)
            for r0 in range(0, counts.size, _CLASSIFY_ROWS):
                r1 = min(r0 + _CLASSIFY_ROWS, counts.size)
                lo = int(ends[r0 - 1]) if r0 else 0
                lanes = ids[lo : int(ends[r1 - 1])]
                starts = ends[r0:r1] - counts[r0:r1] - lo
                first = np.empty(lanes.size, dtype=bool)
                first[0] = True
                np.not_equal(lanes[1:], lanes[:-1], out=first[1:])
                first[starts] = True
                flags = np.take(flag_lut, lanes)
                l2_serviced = flags == 2  # L2-hot, not L1-hot
                dram = flags < 2  # not L2-hot (hot sets need not nest)
                total_lines += int(np.count_nonzero(first))
                l2_lines += int(np.count_nonzero(first & l2_serviced))
                dram_lines += int(np.count_nonzero(first & dram))
                dram_instr += int(
                    np.count_nonzero(np.logical_or.reduceat(dram, starts))
                )
                n_l2_lanes += int(np.count_nonzero(l2_serviced))
                n_dram_lanes += int(np.count_nonzero(dram))
        # Mean-lane severity: each lane contributes its own latency; the
        # instruction's expected stall is the lane average.
        if self.total_valid:
            lane_avg_total = (
                n_l2_lanes * config.texture_l2_latency_cycles
                + n_dram_lanes * config.texture_miss_latency_cycles
            ) / self.lanes
        else:
            lane_avg_total = 0.0
        return TextureTraffic(
            accesses=self.accesses,
            dependent_latency_cycles=lane_avg_total,
            l2_line_requests=l2_lines,
            dram_line_requests=dram_lines,
            dram_instr_rate=(
                dram_instr / self.accesses if self.accesses else 0.0
            ),
            lane_l1_hit_rate=(
                1.0 - (n_l2_lanes + n_dram_lanes) / self.total_valid
                if self.total_valid
                else 1.0
            ),
            line_bytes=self.line_bytes,
            total_line_requests=total_lines,
        )

    def finish(
        self, config: DeviceConfig, params: CostParams
    ) -> TextureTraffic:
        """The scan's :class:`TextureTraffic`: rank, fix the hot sets,
        classify."""
        return self.classify(*self.hot_sets(config, params), config)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of each run's first element in a sorted non-empty array."""
    starts = np.flatnonzero(values[1:] != values[:-1])
    starts += 1
    return np.concatenate(([0], starts))


@dataclass
class KernelResult:
    """Functional + performance outcome of one simulated kernel launch."""

    name: str
    matches: MatchResult
    counters: EventCounters
    timing: TimingBreakdown
    launch: LaunchConfig
    occupancy: Occupancy
    #: Present for shared-memory kernels: the store scheme used.
    scheme: Optional[str] = None

    @property
    def seconds(self) -> float:
        """Modeled kernel time in seconds."""
        return self.timing.seconds

    @property
    def throughput_gbps(self) -> float:
        """Input bits per modeled second (the paper's unit)."""
        return self.timing.throughput_gbps(self.counters.bytes_owned)

    def summary(self) -> dict:
        """Flat dict for reports and the CLI."""
        return {
            "kernel": self.name,
            "scheme": self.scheme,
            "matches": len(self.matches),
            "seconds": self.seconds,
            "gbps": self.throughput_gbps,
            "regime": self.timing.regime,
            "tex_hit_rate": self.counters.texture_hit_rate,
            "avg_conflict_degree": self.counters.avg_conflict_degree,
            "warps_per_sm": self.occupancy.warps_per_sm,
        }


def grouped_thread_addresses(
    addresses: np.ndarray, valid: np.ndarray, lanes: int = 16
) -> tuple:
    """Reshape ``(window_len, n_threads)`` access matrices into half-warp rows.

    Returns ``(rows, active)`` of shape ``(window_len * groups, lanes)``
    — the layout :func:`repro.gpu.coalesce.coalesce_halfwarp_batch` and
    :func:`repro.gpu.shared_memory.conflict_degrees` expect.
    """
    if addresses.shape != valid.shape:
        raise MemoryModelError("addresses/valid shape mismatch")
    window_len, n_threads = addresses.shape
    pad = (-n_threads) % lanes
    if pad:
        addresses = np.pad(addresses, ((0, 0), (0, pad)))
        valid = np.pad(valid, ((0, 0), (0, pad)))
    groups = addresses.shape[1] // lanes
    return (
        addresses.reshape(window_len * groups, lanes),
        valid.reshape(window_len * groups, lanes),
    )


def launch_for(
    n_threads: int, threads_per_block: int, shared_bytes_per_block: int = 0
) -> LaunchConfig:
    """The smallest grid of whole blocks covering *n_threads* threads."""
    return LaunchConfig(
        n_blocks=max(-(-n_threads // threads_per_block), 1),
        threads_per_block=threads_per_block,
        shared_bytes_per_block=shared_bytes_per_block,
    )


@dataclass(frozen=True)
class ScanSegment:
    """The functional pass of an AC kernel launch: everything but price.

    Built once per launch by :func:`scan_segment` and held only by the
    measurement that prices it.  ``extra`` holds the finished result of
    the kernel's extra tile sink (the global kernel's input-load
    coalescing summary), or None.
    """

    matches: MatchResult
    raw_hits: int
    bytes_scanned: int
    tex: TextureTraffic
    backend_cost: BackendCost
    extra: Any = None


def scan_segment(
    dfa: DFA,
    arr: np.ndarray,
    plan: ChunkPlan,
    config: DeviceConfig,
    params: CostParams,
    *,
    stt_backend: str,
    tracer,
    extra_sink=None,
    gather_table=None,
) -> ScanSegment:
    """Tiled scan plus texture accounting in one walk.

    One :func:`~repro.core.tiled.scan_tiled` run fuses match
    extraction, the :class:`TextureClassifier` (which keeps each tile's
    sorted half-warp rows of line ids) and the optional ``extra_sink``
    (an ``on_tile``/``finish`` object).  After the last tile the
    classifier ranks the lines, fixes both hot sets and classifies its
    kept rows, so the DFA walks the input once and every modeled
    counter is byte-identical to the whole-trace computation.  The
    kept rows cost 4 B per trace cell; at the shared kernel's geometry
    a window (chunk + overlap steps) fits in one default tile, and the
    global kernel's longer windows keep the rows of several tiles.

    Every call scans; nothing is stored.  Every backend is functionally
    exact and leaves every counter unchanged — texture line ids always
    come from the dense layout — but the segment records a
    :class:`~repro.compress.backend.BackendCost` snapshot (footprint,
    exact failure-chain walk counts) that pricing folds in.

    ``gather_table`` supplies the bytes the scan gathers through: a
    launch passes its device's bound copy
    (:meth:`~repro.gpu.device.Device.gather_table`), which
    :func:`run_on_device` verified just before; without one the scan
    reads the DFA's memo.
    """
    backend = resolve_backend(stt_backend)
    texture = TextureClassifier(dfa.n_states, config.texture_cache.line_bytes)
    sinks = [texture] if extra_sink is None else [texture, extra_sink]
    # Chain/lookup counters are cumulative on the adapter the scan
    # below gathers through (the bound copy's, else the DFA's memo);
    # snapshot around the scan so the recorded cost covers exactly it.
    table = dfa.gather_table(backend) if gather_table is None else gather_table
    before = cost_of(dfa, table, backend)
    with tracer.span("ownership_filter") as sp:
        outcome = scan_tiled(
            dfa, arr, plan=plan, stt_backend=backend,
            gather_table=table, sinks=sinks,
        )
        sp.set(raw_hits=outcome.raw_hits, matches=len(outcome.matches))
    return ScanSegment(
        matches=outcome.matches,
        raw_hits=outcome.raw_hits,
        bytes_scanned=outcome.bytes_scanned,
        tex=texture.finish(config, params),
        backend_cost=cost_of(dfa, table, backend).since(before),
        extra=None if extra_sink is None else extra_sink.finish(),
    )


def run_on_device(
    kernel: str,
    dfa: DFA,
    data,
    device: Optional[Device],
    tracer,
    body: Callable[[np.ndarray, Device, Any, Any], KernelResult],
    *,
    stt_backend: str,
    **span_attrs,
) -> KernelResult:
    """The paper's host program, shared by every simulated kernel.

    Performs the full lifecycle on the device: a checksummed
    host→device copy of the input, a texture bind of *dfa*'s gather
    tables for *stt_backend* (skipped when the caller pre-bound them;
    a binding of another automaton or backend raises
    :class:`~repro.errors.LaunchError`), a block-CRC check of the bound
    copy, then ``body(staged, device, tracer, gather_table)`` — the
    kernel's measure + price, where ``gather_table`` is that verified
    copy — inside a ``kernel_body`` span that carries the matches,
    modeled seconds, regime and counters.  Every kernel gathers through
    ``gather_table`` — the AC kernels' scan and PFAC's failureless walk
    alike — so each launch verifies exactly the bytes it reads.  Win
    or lose, every byte allocated here is released, so repeated runs on
    a long-lived device never exhaust the simulated global memory.

    ``tracer`` defaults to the device's, else the no-op tracer; it
    records ``copy_input``/``bind_texture``/``verify_texture``/
    ``kernel_body`` spans around the lifecycle phases.
    """
    device = device or Device()
    if tracer is None:
        tracer = getattr(device, "tracer", None)
    tracer = coalesce(tracer)
    arr = encode(data, name="data")
    if arr.size == 0:
        raise LaunchError("cannot launch a kernel over an empty input")
    with tracer.span("copy_input", nbytes=int(arr.nbytes)):
        staged = device.copy_input(arr)  # pairs with the free() below
    owns_texture = device.texture is None
    try:
        if owns_texture:
            with tracer.span("bind_texture", n_states=dfa.n_states):
                device.bind_texture(dfa, stt_backend)
        table = device.gather_table(dfa, stt_backend)
        with tracer.span("verify_texture", n_states=dfa.n_states):
            device.verify_texture()
        with tracer.span("kernel_body", kernel=kernel, **span_attrs) as sp:
            result = body(staged, device, tracer, table)
            sp.set(
                matches=len(result.matches),
                modeled_seconds=result.seconds,
                regime=result.timing.regime,
                **result.counters.as_span_attrs(),
            )
        return result
    finally:
        device.free(arr.nbytes)
        if owns_texture:
            device.unbind_texture()
