"""Shared kernel infrastructure: the host program, costs, texture traffic.

Every simulated kernel runs the paper's host program once, through
:func:`run_on_device`: copy the input to global memory, bind the STT
to texture, verify the bound table, launch, release.  Inside the
launch each kernel runs two decoupled passes:

1. **measure** — the lockstep DFA engine produces the exact match set
   plus every countable memory event (transactions, bank-conflict
   degrees, two-level texture traffic).  For the AC kernels this is
   :func:`scan_segment`, memoized by content key
   (:mod:`repro.kernels.segcache`);
2. **price** — the measured events are assembled into a
   :class:`~repro.gpu.latency.KernelCost` using the instruction-mix
   constants of :class:`CostParams` and priced by the device.

The split lets pricing-only knobs (the shared kernel's bank scheme and
STT placement) re-price one memoized measurement.  It is not a
calibration seam: hot-set sizing reads
``CostParams.tex_capacity_efficiency``, so segment keys include
``repr(CostParams)`` and new constants re-run the functional pass.

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

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.compress.backend import BackendCost, cost_of, resolve_backend
from repro.core.alphabet import encode
from repro.core.chunking import ChunkPlan
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import iter_dfa_tiles, scan_tiled
from repro.errors import LaunchError, MemoryModelError
from repro.gpu.config import DeviceConfig, Occupancy
from repro.gpu.counters import EventCounters, TimingBreakdown
from repro.gpu.device import Device
from repro.gpu.geometry import LaunchConfig
from repro.gpu.texture import stt_line_ids
from repro.kernels.segcache import segment_get, segment_key, segment_put
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
    #: Distinct lines touched per instruction regardless of cache state
    #: — the traffic an *uncached* STT placement would pay (used by the
    #: texture-placement ablation).
    total_line_requests: int = 0

    @property
    def dram_bytes(self) -> int:
        """DRAM fill traffic (32 B texture lines)."""
        return self.dram_line_requests * 32


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


def _distinct_per_row(rows: np.ndarray, mask: np.ndarray) -> int:
    """Count distinct masked values per row, summed over rows."""
    key = np.where(mask, rows, -1)
    key = np.sort(key, axis=1)
    is_new = np.empty_like(key, dtype=bool)
    is_new[:, 0] = key[:, 0] >= 0
    is_new[:, 1:] = (np.diff(key, axis=1) != 0) & (key[:, 1:] >= 0)
    return int(is_new.sum())


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
    from repro.core.alphabet import STT_COLUMNS

    return (n_states * STT_COLUMNS * 4 - 1) // line_bytes + 1


class TextureLineHistogram:
    """Tile sink: dense per-line fetch histogram of the STT texture.

    Pass 1 of the tiled texture accounting.  Its nonzero entries are,
    by construction, the exact ``(uniq, counts)`` pair ``np.unique``
    returns over the monolithic trace, so the hot sets derived from it
    are byte-identical to the old whole-trace path.
    """

    needs_fetched = True
    needs_windows = True

    def __init__(self, n_states: int, line_bytes: int):
        self.line_bytes = line_bytes
        self.hist = np.zeros(
            _stt_line_id_limit(n_states, line_bytes), dtype=np.int64
        )

    def on_tile(self, tile) -> None:
        """Accumulate one tile's line visits."""
        line_ids = stt_line_ids(
            tile.fetched, tile.windows, line_bytes=self.line_bytes
        )
        flat = line_ids[tile.valid]
        if flat.size:
            self.hist += np.bincount(flat, minlength=self.hist.size)

    def nonzero(self):
        """The (uniq, counts) pair of the accumulated histogram."""
        uniq = np.flatnonzero(self.hist)
        return uniq, self.hist[uniq]

    def hot_sets(self, config: DeviceConfig, params: CostParams):
        """(hot_l1, hot_l2) under the hot-set LRU approximation."""
        uniq, counts = self.nonzero()
        l1_capacity = int(
            config.texture_cache.n_lines * params.tex_capacity_efficiency
        )
        l2_capacity = int(
            (config.texture_l2_bytes // self.line_bytes)
            * params.tex_capacity_efficiency
        )
        # Nested hot sets: L1-hot ⊂ L2-hot by construction (same ranking).
        hot_l1 = hot_line_set_from_counts(uniq, counts, l1_capacity)
        hot_l2 = hot_line_set_from_counts(uniq, counts, l2_capacity)
        return hot_l1, hot_l2


class TextureClassifier:
    """Tile sink: two-level hit/miss classification against fixed hot sets.

    Pass 2 of the tiled texture accounting.  Tiles split the step axis
    only, so the (step × half-warp) rows every statistic is defined
    over are preserved and all row-wise counts are additive; the final
    :class:`TextureTraffic` is byte-identical to classifying the whole
    trace at once.
    """

    needs_fetched = True
    needs_windows = True

    def __init__(
        self,
        hot_l1: np.ndarray,
        hot_l2: np.ndarray,
        line_bytes: int,
        lanes: int = 16,
    ):
        self.hot_l1 = hot_l1
        self.hot_l2 = hot_l2
        self.line_bytes = line_bytes
        self.lanes = lanes
        self.accesses = 0
        self.l2_lines = 0
        self.dram_lines = 0
        self.total_lines = 0
        self.dram_instr = 0
        self.total_valid = 0
        self.n_l2_lanes = 0
        self.n_dram_lanes = 0

    def on_tile(self, tile) -> None:
        """Classify one tile's fetches against the fixed hot sets."""
        lanes = self.lanes
        valid = tile.valid
        line_ids = stt_line_ids(
            tile.fetched, tile.windows, line_bytes=self.line_bytes
        )

        in_l1 = np.isin(line_ids, self.hot_l1)
        in_l2 = np.isin(line_ids, self.hot_l2)
        l1_miss = valid & ~in_l1
        dram = valid & ~in_l2
        l2_serviced = l1_miss & in_l2

        n_rows, n_threads = line_ids.shape
        pad = (-n_threads) % lanes
        if pad:
            line_ids = np.pad(line_ids, ((0, 0), (0, pad)))
            valid_p = np.pad(valid, ((0, 0), (0, pad)))
            l2_p = np.pad(l2_serviced, ((0, 0), (0, pad)))
            dram_p = np.pad(dram, ((0, 0), (0, pad)))
        else:
            valid_p, l2_p, dram_p = valid, l2_serviced, dram
        groups = line_ids.shape[1] // lanes
        rows_lines = line_ids.reshape(n_rows * groups, lanes)
        rows_valid = valid_p.reshape(n_rows * groups, lanes)
        rows_l2 = l2_p.reshape(n_rows * groups, lanes)
        rows_dram = dram_p.reshape(n_rows * groups, lanes)

        self.accesses += int(rows_valid.any(axis=1).sum())
        self.l2_lines += _distinct_per_row(rows_lines, rows_l2)
        self.dram_lines += _distinct_per_row(rows_lines, rows_dram)
        self.total_lines += _distinct_per_row(rows_lines, rows_valid)
        self.dram_instr += int((rows_dram.any(axis=1)).sum())
        self.total_valid += int(valid.sum())
        self.n_l2_lanes += int(l2_serviced.sum())
        self.n_dram_lanes += int(dram.sum())

    def finish(self, config: DeviceConfig) -> TextureTraffic:
        """Assemble the accumulated counts into a :class:`TextureTraffic`."""
        # Mean-lane severity: each lane contributes its own latency; the
        # instruction's expected stall is the lane average.
        if self.total_valid:
            lane_avg_total = (
                self.n_l2_lanes * config.texture_l2_latency_cycles
                + self.n_dram_lanes * config.texture_miss_latency_cycles
            ) / self.lanes
        else:
            lane_avg_total = 0.0
        return TextureTraffic(
            accesses=self.accesses,
            dependent_latency_cycles=lane_avg_total,
            l2_line_requests=self.l2_lines,
            dram_line_requests=self.dram_lines,
            dram_instr_rate=(
                self.dram_instr / self.accesses if self.accesses else 0.0
            ),
            lane_l1_hit_rate=(
                1.0 - (self.n_l2_lanes + self.n_dram_lanes) / self.total_valid
                if self.total_valid
                else 1.0
            ),
            total_line_requests=self.total_lines,
        )


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
    """The memoized functional pass of an AC kernel: everything but price.

    ``extra`` holds the finished result of the kernel's extra tile
    sink (the global kernel's input-load coalescing summary), or None.
    """

    matches: MatchResult
    raw_hits: int
    bytes_scanned: int
    tex: TextureTraffic
    backend_cost: BackendCost
    extra: Any = None


def scan_segment(
    kind: str,
    dfa: DFA,
    arr: np.ndarray,
    plan: ChunkPlan,
    config: DeviceConfig,
    params: CostParams,
    *,
    stt_backend: str,
    tile_len: int,
    tracer,
    extra_sink=None,
) -> ScanSegment:
    """Tiled scan plus two-pass texture accounting, memoized by content.

    Pass 1 fuses match extraction, the texture line histogram and the
    optional ``extra_sink`` (an ``on_tile``/``finish`` object) into one
    :func:`~repro.core.tiled.scan_tiled` run; pass 2 classifies every
    fetch against the hot sets the histogram fixed.  Peak memory stays
    O(n_threads × tile_len) while every modeled counter is
    byte-identical to the whole-trace computation.

    The result is cached under ``kind``, the automaton and input
    digests, the resolved backend name, the tile length, the chunk
    geometry, and ``repr`` of the device config and cost params
    (docs/MODEL.md §14).  Every backend is functionally exact and
    leaves every counter unchanged — texture line ids always come from
    the dense layout — but the segment records a
    :class:`~repro.compress.backend.BackendCost` snapshot (footprint,
    exact failure-chain walk counts) that pricing folds in.
    """
    backend = resolve_backend(stt_backend)
    key = segment_key(
        kind,
        dfa,
        arr,
        backend,
        tile_len,
        plan.chunk_len,
        plan.overlap,
        repr(config),
        repr(params),
    )
    seg = segment_get(key)
    if seg is not None:
        with tracer.span("ownership_filter") as sp:
            sp.set(
                raw_hits=seg.raw_hits, matches=len(seg.matches), cached=True
            )
        return seg

    line_bytes = config.texture_cache.line_bytes
    hist = TextureLineHistogram(dfa.n_states, line_bytes)
    sinks = [hist] if extra_sink is None else [hist, extra_sink]
    # Chain/lookup counters are cumulative on the adapter the DFA
    # memoizes (the one the scans below gather through); snapshot
    # around the functional pass so the recorded cost covers exactly
    # this scan (the classifier re-pass below is excluded).
    table = dfa.gather_table(backend)
    before = cost_of(dfa, table, backend)
    with tracer.span("ownership_filter") as sp:
        outcome = scan_tiled(
            dfa, arr, plan=plan, tile_len=tile_len, stt_backend=backend,
            sinks=sinks,
        )
        sp.set(raw_hits=outcome.raw_hits, matches=len(outcome.matches))
    after = cost_of(dfa, table, backend)

    hot_l1, hot_l2 = hist.hot_sets(config, params)
    classifier = TextureClassifier(hot_l1, hot_l2, line_bytes)
    for tile in iter_dfa_tiles(
        dfa,
        arr,
        plan,
        tile_len=tile_len,
        stt_backend=backend,
        want_windows=True,
        want_fetched=True,
    ):
        classifier.on_tile(tile)
    seg = ScanSegment(
        matches=outcome.matches,
        raw_hits=outcome.raw_hits,
        bytes_scanned=outcome.bytes_scanned,
        tex=classifier.finish(config),
        backend_cost=dataclasses.replace(
            after,
            lookups=after.lookups - before.lookups,
            chain_steps=after.chain_steps - before.chain_steps,
        ),
        extra=None if extra_sink is None else extra_sink.finish(),
    )
    segment_put(key, seg)
    return seg


def run_on_device(
    kernel: str,
    dfa: DFA,
    data,
    device: Optional[Device],
    tracer,
    body: Callable[[np.ndarray, Device, Any], KernelResult],
    **span_attrs,
) -> KernelResult:
    """The paper's host program, shared by every simulated kernel.

    Performs the full lifecycle on the device: a checksummed
    host→device copy of the input, a texture bind of the STT (skipped
    when the caller pre-bound one), an integrity check of the
    texture-resident table, then ``body(staged, device, tracer)`` —
    the kernel's measure + price — inside a ``kernel_body`` span that
    carries the matches, modeled seconds, regime and counters.  Win or
    lose, every byte allocated here is released, so repeated runs on a
    long-lived device never exhaust the simulated global memory.

    ``tracer`` defaults to the device's, else the no-op tracer; it
    records ``copy_input``/``bind_texture``/``kernel_body`` spans
    around the lifecycle phases.
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
                device.bind_texture(dfa.stt)
        device.verify_texture()
        with tracer.span("kernel_body", kernel=kernel, **span_attrs) as sp:
            result = body(staged, device, tracer)
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
