"""PFAC — Parallel Failureless Aho-Corasick (Lin et al., GLOBECOM'10).

The paper's Section IV-A discusses PFAC as the main related GPU
approach: instead of chunking, PFAC launches *one thread per input
byte*; thread ``i`` walks a failure-less trie (undefined transition =
terminate) and reports every pattern that starts at position ``i``.
There is no overlap bookkeeping and no failure function, at the price
of ``O(max pattern length)`` redundant scanning per byte.

We implement it as a comparison baseline (the Abl. C bench): its input
loads are naturally coalesced (adjacent threads read adjacent bytes)
but its threads diverge heavily — most die within a few steps — so a
warp's issue slots are wasted on disabled lanes, and the modeled cost
charges full warp iterations until the *last* lane of the warp dies.

Texture accounting uses the same hot-set model as the AC kernels but at
per-fetch granularity with a fixed half-warp merge factor, because the
PFAC trace is produced in thread batches to bound memory (documented
approximation; the AC kernels use exact per-half-warp merging).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compress.backend import (
    DEFAULT_BACKEND,
    BackendCost,
    resolve_backend,
)
from repro.compress.banded import BandedSTT
from repro.compress.bitmap import BitmapRowSTT
from repro.core.alphabet import ALPHABET_SIZE, STATE_DTYPE
from repro.core.compact import ByteClassMap, compact_columns
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.pattern_set import PatternSet
from repro.core.trie import Trie
from repro.gpu.config import DeviceConfig
from repro.gpu.counters import EventCounters
from repro.gpu.device import Device
from repro.gpu.latency import KernelCost
from repro.gpu.texture import stt_line_ids
from repro.kernels.base import (
    CostParams,
    KernelResult,
    backend_compute_cycles,
    backend_footprint_relief,
    launch_for,
    run_on_device,
)
from repro.kernels.segcache import segment_get, segment_key, segment_put

#: Dead state of the failureless trie.
DEAD = -1

#: Threads processed per functional batch (bounds peak memory).
BATCH_THREADS = 1 << 19

#: Average distinct-line merge factor within a half-warp's misses
#: (PFAC approximation; the AC kernels compute this exactly).
HALFWARP_MISS_MERGE = 4.0


@dataclass(frozen=True)
class PfacAutomaton:
    """Failureless trie in dense table form.

    ``table[s, a]`` is the next state or :data:`DEAD`.  ``out_*`` is
    the CSR output map over *exact* terminal states (no failure-chain
    inheritance — PFAC finds suffix patterns from their own start
    threads instead).
    """

    table: np.ndarray
    out_offsets: np.ndarray
    out_ids: np.ndarray
    max_depth: int
    patterns: PatternSet

    @property
    def n_states(self) -> int:
        """Number of trie states."""
        return self.table.shape[0]

    @classmethod
    def build(cls, patterns: PatternSet) -> "PfacAutomaton":
        """Build the failureless table from a pattern set."""
        trie = Trie.from_patterns(patterns)
        n = trie.n_states
        table = np.full((n, ALPHABET_SIZE), DEAD, dtype=STATE_DTYPE)
        for state, byte, child in trie.edges():
            table[state, byte] = child
        counts = np.fromiter(
            (len(trie.terminal[s]) for s in range(n)), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        ids = np.empty(int(offsets[-1]), dtype=np.int64)
        pos = 0
        for s in range(n):
            t = trie.terminal[s]
            ids[pos : pos + len(t)] = t
            pos += len(t)
        return cls(
            table=table,
            out_offsets=offsets,
            out_ids=ids,
            max_depth=patterns.max_length,
            patterns=patterns,
        )


class _PfacGather:
    """δ-gather for the failureless trie over any STT backend.

    Compaction is exact for PFAC because a byte used by no pattern
    labels no trie edge at all, so its dense column is all-:data:`DEAD`
    — exactly the compacted "other" column.  ``banded`` bands each row
    around its defined columns (DEAD is the row default) and ``bitmap``
    uses chain-free popcount-rank rows (:class:`BitmapRowSTT`) — PFAC
    has no failure function, so the bitmap backend never walks a chain
    here.  Texture line ids are always computed from the dense (state,
    symbol) layout, so the modeled traffic counters are independent of
    which table the gather uses.
    """

    __slots__ = ("n_states", "table", "class_of", "compressed", "backend",
                 "lookups", "_table_bytes", "_dense_bytes")

    def __init__(self, pfac: PfacAutomaton, backend: str):
        self.backend = backend
        self.n_states = pfac.n_states
        self.table = pfac.table
        self.class_of = None
        self.compressed = None
        self.lookups = 0
        self._dense_bytes = int(pfac.table.nbytes)
        self._table_bytes = self._dense_bytes
        if self.backend == "compact":
            cmap = ByteClassMap.from_patterns(pfac.patterns)
            self.table = compact_columns(pfac.table, cmap, DEAD)
            self.class_of = cmap.class_of
        elif self.backend == "banded":
            self.compressed = BandedSTT.from_table(pfac.table)
            self._table_bytes = int(self.compressed.stats().compressed_bytes)
        elif self.backend == "bitmap":
            self.compressed = BitmapRowSTT.from_table(pfac.table, default=DEAD)
            self._table_bytes = int(self.compressed.stats().compressed_bytes)

    def next_states(self, state: np.ndarray, sym: np.ndarray) -> np.ndarray:
        s = np.minimum(state, self.n_states - 1)
        self.lookups += int(np.asarray(state).size)
        if self.compressed is not None:
            return self.compressed.next_states(s, np.asarray(sym, dtype=np.int64))
        cols = sym if self.class_of is None else self.class_of[sym]
        return self.table[s, cols]

    def cost(self) -> BackendCost:
        """Footprint + lookup accounting (chain-free: zero walk steps)."""
        return BackendCost(
            backend=self.backend,
            table_bytes=self._table_bytes,
            dense_bytes=self._dense_bytes,
            lookups=self.lookups,
            chain_steps=0,
        )


def _run_batch(
    pfac: PfacAutomaton,
    data: np.ndarray,
    start: int,
    stop: int,
    hot_lines: Optional[np.ndarray],
    line_bytes: int,
    gather: _PfacGather,
) -> Tuple[np.ndarray, np.ndarray, int, int, int]:
    """Walk threads [start, stop); returns matches + fetch accounting.

    Returns ``(ends, pids, fetches, misses, warp_iters)``; ``misses``
    counts fetches whose line is outside ``hot_lines`` and stays 0
    when ``hot_lines`` is None (pass A, before the hot set exists).
    """
    n = data.size
    idx = np.arange(start, stop, dtype=np.int64)
    state = np.zeros(idx.size, dtype=np.int64)
    alive = np.ones(idx.size, dtype=bool)
    ends_out: List[np.ndarray] = []
    pids_out: List[np.ndarray] = []
    fetches = 0
    misses = 0
    warp_iters = 0
    offs = pfac.out_offsets

    for d in range(pfac.max_depth):
        pos = idx + d
        alive = alive & (pos < n)
        if not alive.any():
            break
        sym = np.where(alive, data[np.minimum(pos, n - 1)], 0)
        # Texture fetch happens for alive lanes (they read table[state]).
        a_states = state[alive]
        a_syms = sym[alive].astype(np.int64)
        lids = stt_line_ids(a_states, a_syms, line_bytes=line_bytes)
        fetches += int(lids.size)
        if hot_lines is not None and lids.size:
            misses += int((~np.isin(lids, hot_lines)).sum())
        # A warp stays live until its last lane dies: count warp
        # iterations as warps containing any alive lane.
        alive_w = alive.reshape(-1, 32) if alive.size % 32 == 0 else None
        if alive_w is None:
            pad = (-alive.size) % 32
            alive_w = np.pad(alive, (0, pad)).reshape(-1, 32)
        warp_iters += int(alive_w.any(axis=1).sum())

        nxt = np.where(alive, gather.next_states(state, sym), DEAD)
        state = np.where(nxt >= 0, nxt, 0)
        newly_dead = alive & (nxt < 0)
        alive = alive & ~newly_dead

        # Emit outputs of states entered this step.
        entered = np.where(alive, state, 0)
        counts = offs[entered + 1] - offs[entered]
        counts = np.where(alive, counts, 0)
        hit = counts > 0
        if hit.any():
            h_idx = idx[hit]
            h_states = entered[hit]
            h_counts = counts[hit]
            total = int(h_counts.sum())
            starts_csr = offs[h_states]
            flat = np.arange(total, dtype=np.int64)
            cum = np.cumsum(h_counts)
            flat -= np.repeat(cum - h_counts, h_counts)
            flat += np.repeat(starts_csr, h_counts)
            pids = pfac.out_ids[flat]
            ends = np.repeat(h_idx + d, h_counts)
            ends_out.append(ends)
            pids_out.append(pids)

    ends = np.concatenate(ends_out) if ends_out else np.empty(0, dtype=np.int64)
    pids = np.concatenate(pids_out) if pids_out else np.empty(0, dtype=np.int64)
    return ends, pids, fetches, misses, warp_iters


def run_pfac_kernel(
    dfa: DFA,
    data,
    device: Optional[Device] = None,
    *,
    threads_per_block: int = 256,
    params: Optional[CostParams] = None,
    tracer=None,
    stt_backend: str = DEFAULT_BACKEND,
) -> KernelResult:
    """Run PFAC over *data*; matches are identical to the AC kernels.

    ``dfa`` supplies the pattern set (the failureless table is built
    from it); reusing the DFA argument keeps the kernel signatures
    uniform across the bench harness.  The device lifecycle is the
    one every kernel shares (:func:`repro.kernels.base.run_on_device`);
    ``tracer`` (default: the device's, else no-op) records its spans
    plus the trie ``build``.
    """
    params = params or CostParams()
    backend = resolve_backend(stt_backend)

    def body(arr, device, tracer):
        # Both functional passes (and the trie build feeding them) are a
        # deterministic function of the pattern set, input bytes, gather
        # backend, launch width, and the config/params constants —
        # memoize the whole measurement so repeated bench cells only
        # re-price.
        config = device.config
        key = segment_key(
            "pfac-passes",
            dfa,
            arr,
            backend,
            threads_per_block,
            repr(config),
            repr(params),
        )
        seg = segment_get(key)
        if seg is None:
            with tracer.span("build", kernel="pfac") as sp:
                pfac = PfacAutomaton.build(dfa.patterns)
                sp.set(n_states=pfac.n_states)
            seg = _pfac_passes(
                pfac, arr, config, params, threads_per_block, backend
            )
            segment_put(key, seg)
        matches, counters, cost, launch, occupancy = seg
        return KernelResult(
            name="pfac",
            matches=matches,
            counters=counters,
            timing=device.launch(launch, cost),
            launch=launch,
            occupancy=occupancy,
        )

    return run_on_device("pfac", dfa, data, device, tracer, body)


def _pfac_passes(
    pfac: PfacAutomaton,
    arr: np.ndarray,
    config: DeviceConfig,
    params: CostParams,
    threads_per_block: int,
    backend: str,
):
    """Both functional passes + cost assembly (no launch pricing)."""
    gather = _PfacGather(pfac, backend)
    # ---- pass A: functional + fetch counts ---------------------------------
    all_ends: List[np.ndarray] = []
    all_pids: List[np.ndarray] = []
    fetches_total = 0
    warp_iters = 0
    for start in range(0, arr.size, BATCH_THREADS):
        stop = min(start + BATCH_THREADS, arr.size)
        ends, pids, fetches, _, iters = _run_batch(
            pfac, arr, start, stop, None, config.texture_cache.line_bytes,
            gather=gather,
        )
        all_ends.append(ends)
        all_pids.append(pids)
        fetches_total += fetches
        warp_iters += iters
    matches = MatchResult(
        np.concatenate(all_ends) if all_ends else np.empty(0, dtype=np.int64),
        np.concatenate(all_pids) if all_pids else np.empty(0, dtype=np.int64),
    )
    # Snapshot here so the modeling passes below (frequency sample +
    # miss counting) do not inflate the recorded per-scan lookup count.
    backend_cost = gather.cost()

    # Hot set: PFAC visits shallow trie states overwhelmingly; keep the
    # most frequent lines.  Frequency needs a second pass; we use the
    # first batch's full trace as the frequency sample.
    sample_stop = min(BATCH_THREADS, arr.size)
    sample_lines = _collect_sample_lines(
        pfac, arr, sample_stop, config.texture_cache.line_bytes, gather=gather
    )
    capacity = int(
        config.texture_cache.n_lines * params.tex_capacity_efficiency
    )
    if sample_lines.size:
        uniq, counts = np.unique(sample_lines, return_counts=True)
        order = np.argsort(counts)[::-1][:capacity]
        hot = np.sort(uniq[order])
    else:
        hot = np.empty(0, dtype=np.int64)

    # ---- pass B: miss counting against the hot set ---------------------------
    misses_total = 0
    for start in range(0, arr.size, BATCH_THREADS):
        stop = min(start + BATCH_THREADS, arr.size)
        _, _, _, misses, _ = _run_batch(
            pfac, arr, start, stop, hot, config.texture_cache.line_bytes,
            gather=gather,
        )
        misses_total += misses
    miss_requests = misses_total / HALFWARP_MISS_MERGE

    # ---- launch + cost ----------------------------------------------------------
    launch = launch_for(int(arr.size), threads_per_block)
    occupancy = launch.validate(config)

    # Input loads: step d reads a contiguous byte run -> coalesced:
    # one 128 B segment per half-warp per step.
    input_transactions = warp_iters * 2  # 2 half-warps per warp-iteration
    input_bus = input_transactions * config.min_transaction_bytes

    counters = EventCounters(
        bytes_owned=int(arr.size),
        bytes_scanned=fetches_total,
        global_transactions=input_transactions,
        global_bytes=input_bus,
        global_useful_bytes=fetches_total,
        global_warp_events=warp_iters,
        texture_accesses=int(fetches_total / config.half_warp) or 1,
        texture_misses=int(miss_requests),
        warp_iterations=warp_iters,
        raw_match_writes=len(matches),
    )

    cpwi = config.cycles_per_warp_instruction
    compute = (
        warp_iters * params.instr_per_iter_global * cpwi
        + counters.texture_accesses * config.texture_hit_cycles
        + len(matches) / config.warp_size * params.instr_per_match_write * cpwi
    )
    compute += backend_compute_cycles(
        backend_cost, counters.texture_accesses, config, params
    )
    relief = backend_footprint_relief(backend_cost, params)
    cost = KernelCost(
        counters=counters,
        occupancy=occupancy,
        compute_cycles_total=compute,
        # Approximate: every merged miss stalls a warp one L2 latency
        # (PFAC's working set is the shallow failureless trie, which
        # rarely reaches DRAM).  Compressed backends keep more of the
        # trie cache-resident, scaling the priced (not counted) misses.
        dependent_latency_cycles=(
            miss_requests * config.texture_l2_latency_cycles * relief
        ),
        mem_requests_pipelined=input_transactions,
        mem_bytes_total=(
            input_bus
            + miss_requests * config.texture_cache.line_bytes * relief
        ),
        input_bytes=int(arr.size),
    )
    return matches, counters, cost, launch, occupancy


def _collect_sample_lines(
    pfac: PfacAutomaton,
    data: np.ndarray,
    stop: int,
    line_bytes: int,
    gather: _PfacGather,
) -> np.ndarray:
    """Full (not unique) line trace of threads [0, stop) for frequency."""
    n = data.size
    idx = np.arange(0, stop, dtype=np.int64)
    state = np.zeros(idx.size, dtype=np.int64)
    alive = np.ones(idx.size, dtype=bool)
    out: List[np.ndarray] = []
    for d in range(pfac.max_depth):
        pos = idx + d
        alive = alive & (pos < n)
        if not alive.any():
            break
        sym = np.where(alive, data[np.minimum(pos, n - 1)], 0)
        out.append(
            stt_line_ids(
                state[alive], sym[alive].astype(np.int64), line_bytes=line_bytes
            )
        )
        nxt = np.where(alive, gather.next_states(state, sym), DEAD)
        state = np.where(nxt >= 0, nxt, 0)
        alive = alive & (nxt >= 0)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)
