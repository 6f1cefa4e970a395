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

PFAC needs no table of its own: the failureless trie is the AC DFA's
goto function.  δ(s, b) is either the goto edge, one trie depth deeper
than ``s``, or δ(fail(s), b), at most as deep as ``s``; so a thread
lives exactly while each step lands one depth deeper, and on entering
``s`` it reports the patterns of out(s) as long as depth(s) — the one
ending there, not the suffixes other threads find.  A launch therefore
walks the same device-bound, block-checksummed gather table the AC
kernels read (:func:`~repro.kernels.base.run_on_device`) together with
the DFA's depth memo (:meth:`~repro.core.dfa.DFA.state_depths`), and
feeds the AC kernels' texture sink,
:class:`~repro.kernels.base.TextureClassifier`, one set of half-warp
rows (a depth × 16 consecutive threads) per thread batch and depth.
Its texture terms are priced as the AC kernels' are
(:func:`~repro.kernels.base.price_texture`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compress.backend import DEFAULT_BACKEND, cost_of, resolve_backend
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import GatherKernel
from repro.gpu.counters import EventCounters
from repro.gpu.device import Device
from repro.gpu.latency import KernelCost
from repro.kernels.base import (
    CostParams,
    KernelResult,
    TextureClassifier,
    launch_for,
    price_texture,
    run_on_device,
)

#: Threads walked per batch (bounds peak memory).  A multiple of the
#: warp, so every warp and half-warp row lies in one batch.
BATCH_THREADS = 1 << 19


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

    The device lifecycle is the one every kernel shares
    (:func:`repro.kernels.base.run_on_device`), and the walk gathers
    through the verified copy it binds for ``stt_backend``.
    ``tracer`` (default: the device's, else no-op) records the
    lifecycle spans.
    """
    params = params or CostParams()
    backend = resolve_backend(stt_backend)

    def body(arr, device, tracer, gather_table):
        config = device.config
        texture = TextureClassifier(
            dfa.n_states, config.texture_cache.line_bytes
        )
        before = cost_of(dfa, gather_table, backend)
        ends, pids, bytes_scanned, warp_iters = _walk(
            dfa, arr, gather_table, texture
        )
        backend_cost = cost_of(dfa, gather_table, backend).since(before)
        tex = texture.finish(config, params)
        del texture  # free the kept lanes before sorting the matches
        matches = MatchResult(_flat(ends), _flat(pids))
        tex_price = price_texture(tex, backend_cost, config, params)

        launch = launch_for(int(arr.size), threads_per_block)
        occupancy = launch.validate(config)
        # Input loads: step d reads a contiguous byte run -> coalesced:
        # one 128 B segment per half-warp per step.
        input_transactions = warp_iters * 2  # 2 half-warps per warp-iteration
        input_bus = input_transactions * config.min_transaction_bytes
        counters = EventCounters(
            bytes_owned=int(arr.size),
            bytes_scanned=bytes_scanned,
            global_transactions=input_transactions,
            global_bytes=input_bus,
            global_useful_bytes=bytes_scanned,
            global_warp_events=warp_iters,
            texture_accesses=tex.accesses,
            # "Misses" = fills from device memory, as for the AC kernels.
            texture_misses=tex.dram_line_requests,
            warp_iterations=warp_iters,
            raw_match_writes=len(matches),
        )
        cpwi = config.cycles_per_warp_instruction
        compute = (
            warp_iters * params.instr_per_iter_global * cpwi
            + tex_price.hit_cycles
            + len(matches) / config.warp_size * params.instr_per_match_write * cpwi
        )
        compute += tex_price.backend_cycles
        cost = KernelCost(
            counters=counters,
            occupancy=occupancy,
            compute_cycles_total=compute,
            dependent_latency_cycles=tex_price.dependent_cycles,
            mem_requests_pipelined=input_transactions + tex_price.dram_lines,
            # Coalesced input runs at peak bandwidth; texture fills are
            # scattered line transactions, as in the AC kernels.
            mem_bytes_total=(
                input_bus + tex_price.dram_bytes / config.dram_scatter_efficiency
            ),
            input_bytes=int(arr.size),
        )
        return KernelResult(
            name="pfac",
            matches=matches,
            counters=counters,
            timing=device.launch(launch, cost),
            launch=launch,
            occupancy=occupancy,
        )

    return run_on_device(
        "pfac", dfa, data, device, tracer, body, stt_backend=backend
    )


def _walk(dfa: DFA, arr: np.ndarray, gather_table, texture: TextureClassifier):
    """Every thread's failureless walk, one batch and depth at a time.

    Steps only the live lanes through the gather table, feeds each
    depth's fetches to *texture*, and returns ``(ends, pattern_ids,
    bytes_scanned, warp_iterations)``: the matches as lists of array
    parts, a fetch per live lane and depth, and a warp iteration per
    warp and depth with a live lane.
    """
    n = arr.size
    depths = dfa.state_depths()
    lengths = dfa.pattern_lengths
    gather = GatherKernel(dfa, gather_table)
    flags = None if gather.adapter is None else gather.adapter.match_flags
    ends_parts, pids_parts = [], []
    bytes_scanned = warp_iters = 0
    for start in range(0, n, BATCH_THREADS):
        threads = np.arange(start, min(start + BATCH_THREADS, n), dtype=np.int64)
        states = np.zeros(threads.size, dtype=gather.row_dtype)  # the root
        for d in range(dfa.patterns.max_length):
            # Threads ascend, so those whose byte d exists are a prefix.
            live = int(np.searchsorted(threads, n - d))
            threads, states = threads[:live], states[:live]
            if not live:
                break
            syms = arr[threads + d]
            bytes_scanned += live
            warps = threads >> 5  # 32-thread warps
            warp_iters += 1 + int(np.count_nonzero(warps[1:] != warps[:-1]))
            texture.on_lanes(states, syms, threads)

            nxt = np.empty(live, dtype=gather.row_dtype)
            if flags is None:
                hit = np.empty(live, dtype=bool)
                gather.alloc(live)
                gather.step_fused(states, syms, nxt, hit)
            else:
                gather.step(states.astype(np.int64), syms, nxt)
                hit = np.take(flags, nxt) != 0
            # A goto edge lands one trie depth deeper; anything else
            # is the failure path, and the thread dies.
            alive = np.take(depths, nxt) == d + 1
            threads, states, hit = threads[alive], nxt[alive], hit[alive]
            if hit.any():
                source, pids = dfa.expand_outputs(states[hit])
                own = np.take(lengths, pids) == d + 1
                ends_parts.append(threads[hit][source[own]] + d)
                pids_parts.append(pids[own])
    return ends_parts, pids_parts, bytes_scanned, warp_iters


def _flat(parts: list) -> np.ndarray:
    """The concatenation of array *parts*, which it empties."""
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    parts.clear()
    return flat
