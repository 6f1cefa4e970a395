"""Global-memory-only AC kernel (paper Section IV-B-3, Fig. 7).

Each thread owns one chunk of the input resident in global memory and
walks the DFA over its window (chunk + X overlap) reading the input
*directly from global memory*, one byte per iteration.  The STT is
fetched through the texture path.  Because the threads of a half-warp
stride through memory a whole chunk apart, their input loads fall in 16
different 128-byte segments and cannot coalesce — every iteration
costs a half-warp-full of global transactions, which is precisely the
overhead the shared-memory kernel removes.

With no shared-memory usage the occupancy is high (the paper: "a higher
degree of multithreading in play"), but the uncoalesced transactions
saturate the SM's request-issue path and the kernel lands in the
paper's Fig. 19(b) regime on all but the smallest dictionaries.

The module exposes :func:`measure_global` (functional run + event
counting) and :func:`price_global` (cost assembly) separately;
:func:`run_global_kernel` runs both inside the shared host program
(:func:`repro.kernels.base.run_on_device`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compress.backend import DEFAULT_BACKEND
from repro.core.alphabet import encode
from repro.core.chunking import plan_chunks, required_overlap
from repro.core.dfa import DFA
from repro.core.tiled import DEFAULT_TILE_LEN
from repro.errors import LaunchError
from repro.gpu.coalesce import CoalesceAccumulator, CoalesceSummary
from repro.gpu.counters import EventCounters
from repro.gpu.device import Device
from repro.gpu.geometry import LaunchConfig
from repro.gpu.latency import KernelCost
from repro.kernels.base import (
    CostParams,
    KernelResult,
    ScanSegment,
    grouped_thread_addresses,
    launch_for,
    price_texture,
    run_on_device,
    scan_segment,
)
from repro.obs import coalesce

#: Default chunk per thread.  Large enough to amortize per-thread state,
#: small enough to spawn a grid that fills 30 SMs on megabyte inputs.
DEFAULT_CHUNK_LEN = 512

#: Default block size (no shared memory -> 4 blocks of 256 = full SM).
DEFAULT_THREADS_PER_BLOCK = 256


@dataclass
class GlobalMeasurement:
    """Everything measured from one functional global-kernel run."""

    seg: ScanSegment
    input_bytes: int
    window_len: int
    n_threads: int
    input_summary: CoalesceSummary
    launch: LaunchConfig


class _InputLoadSink:
    """Tile sink: streams the naive per-thread byte loads into the
    coalescing accumulator (each (step, thread) cell is one lane of a
    half-warp load instruction)."""

    needs_windows = False
    needs_fetched = False

    def __init__(self, config):
        self.accum = CoalesceAccumulator(
            1,
            segment_bytes=config.coalesce_segment_bytes,
            min_transaction_bytes=config.min_transaction_bytes,
        )

    def on_tile(self, tile) -> None:
        rows, active = grouped_thread_addresses(tile.positions(), tile.valid)
        self.accum.add(rows, active)

    def finish(self) -> CoalesceSummary:
        return self.accum.finish()


def measure_global(
    dfa: DFA,
    data,
    config,
    *,
    chunk_len: int = DEFAULT_CHUNK_LEN,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    params: Optional[CostParams] = None,
    tracer=None,
    tile_len: int = DEFAULT_TILE_LEN,
    stt_backend: str = DEFAULT_BACKEND,
    gather_table=None,
) -> GlobalMeasurement:
    """Functional pass + event measurement (no pricing).

    The AC scan segment (:func:`repro.kernels.base.scan_segment`) with
    the input-load coalescing accumulator fused into its tiles.  The
    whole measurement is independent of ``threads_per_block`` — that
    only shapes the launch.  ``gather_table`` is the device's verified
    copy a launch scans through (default: the DFA's memo).
    """
    params = params or CostParams()
    arr = encode(data, name="data")
    if chunk_len <= 0:
        raise LaunchError(f"chunk_len must be positive, got {chunk_len}")

    overlap = required_overlap(dfa.patterns.max_length)
    plan = plan_chunks(arr.size, chunk_len, overlap)
    seg = scan_segment(
        dfa,
        arr,
        plan,
        config,
        params,
        stt_backend=stt_backend,
        tile_len=tile_len,
        tracer=coalesce(tracer),
        gather_table=gather_table,
        extra_sink=_InputLoadSink(config),
    )
    return GlobalMeasurement(
        seg=seg,
        input_bytes=int(arr.size),
        window_len=plan.window_len,
        n_threads=plan.n_chunks,
        input_summary=seg.extra,
        launch=launch_for(plan.n_chunks, threads_per_block),
    )


def price_global(
    meas: GlobalMeasurement,
    device: Device,
    params: Optional[CostParams] = None,
) -> KernelResult:
    """Assemble and price the cost of a measured run."""
    params = params or CostParams()
    config = device.config
    occupancy = meas.launch.validate(config)
    seg, tex = meas.seg, meas.seg.tex

    warp_iterations = meas.window_len * (
        -(-meas.n_threads // config.warp_size)
    )
    counters = EventCounters(
        bytes_owned=meas.input_bytes,
        bytes_scanned=seg.bytes_scanned,
        global_transactions=meas.input_summary.transactions,
        global_bytes=meas.input_summary.bus_bytes,
        global_useful_bytes=meas.input_summary.useful_bytes,
        global_warp_events=meas.input_summary.accesses,
        texture_accesses=tex.accesses,
        # "Misses" = fills from device memory; L1 misses served by the
        # on-chip texture L2 are not counted against the hit rate.
        texture_misses=tex.dram_line_requests,
        warp_iterations=warp_iterations,
        raw_match_writes=seg.raw_hits,
    )

    tex_price = price_texture(tex, seg.backend_cost, config, params)
    cpwi = config.cycles_per_warp_instruction
    compute = (
        warp_iterations * params.instr_per_iter_global * cpwi
        + tex_price.hit_cycles
        + seg.raw_hits / config.warp_size * params.instr_per_match_write * cpwi
    )
    compute += tex_price.backend_cycles

    # Each input-load instruction stalls its warp for a full DRAM
    # round-trip (global loads are uncached on the GTX 285).
    input_dependent = (
        meas.input_summary.accesses * config.global_latency_cycles
    )

    # Both the per-thread input reads and the texture fills are
    # scattered 32 B transactions; GDDR3 serves those well below peak.
    scatter = config.dram_scatter_efficiency
    match_bytes = seg.raw_hits * 8
    cost = KernelCost(
        counters=counters,
        occupancy=occupancy,
        compute_cycles_total=compute,
        dependent_latency_cycles=input_dependent + tex_price.dependent_cycles,
        mem_requests_pipelined=(
            meas.input_summary.transactions + tex_price.dram_lines
        ),
        mem_bytes_total=(
            (meas.input_summary.bus_bytes + tex_price.dram_bytes) / scatter
            + match_bytes
        ),
        input_bytes=meas.input_bytes,
    )
    timing = device.launch(meas.launch, cost)
    return KernelResult(
        name="global_only",
        matches=seg.matches,
        counters=counters,
        timing=timing,
        launch=meas.launch,
        occupancy=occupancy,
    )


def run_global_kernel(
    dfa: DFA,
    data,
    device: Optional[Device] = None,
    *,
    chunk_len: int = DEFAULT_CHUNK_LEN,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    params: Optional[CostParams] = None,
    tracer=None,
    tile_len: int = DEFAULT_TILE_LEN,
    stt_backend: str = DEFAULT_BACKEND,
) -> KernelResult:
    """Run the global-memory-only kernel on *data* (measure + price).

    Same device lifecycle as every kernel
    (:func:`repro.kernels.base.run_on_device`); ``tracer`` (default:
    the device's, else no-op) records the lifecycle spans.
    """

    def body(staged, device, tracer, gather_table):
        meas = measure_global(
            dfa,
            staged,
            device.config,
            chunk_len=chunk_len,
            threads_per_block=threads_per_block,
            params=params,
            tracer=tracer,
            tile_len=tile_len,
            stt_backend=stt_backend,
            gather_table=gather_table,
        )
        return price_global(meas, device, params)

    return run_on_device(
        "global_only", dfa, data, device, tracer, body,
        stt_backend=stt_backend,
    )
