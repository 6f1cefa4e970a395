"""Shared-memory AC kernel (paper Section IV-B-3, Figs. 8-12).

The block's threads first *cooperatively stage* the block's input from
global memory into shared memory — each thread loads one 4-byte word
per step, so a half-warp's 16 words form one coalesced 64-byte
transaction (Figs. 9-10) — then synchronize, then every thread matches
its own chunk out of shared memory, fetching STT rows through the
texture path.

Where the staged words land in the shared banks is the kernel's
``scheme`` parameter (:mod:`repro.gpu.layouts`):

* ``"diagonal"``      — the paper's conflict-free scheme (default);
* ``"coalesce_only"`` — coalesced staging, linear placement: the
  matching loads collide (Fig. 23's baseline);
* ``"naive"``         — per-thread uncoalesced staging *and* linear
  placement (Fig. 23's worst case);
* ``"transposed"``    — load-perfect/store-broken alternative (ablation).

The default geometry stages 8 KB + overlap per 128-thread block with
64-byte chunks — the paper's "8~12 KB of the 16 KB shared memory for
the input text data", and exactly the geometry for which the diagonal
scheme is conflict-free in both phases.

Like the global kernel, this module separates :func:`measure_shared`
from :func:`price_shared`; :func:`run_shared_kernel` runs both inside
the shared host program (:func:`repro.kernels.base.run_on_device`).
:func:`stage_shared` re-stages a measurement's scan under another
store scheme and STT placement, so :func:`run_shared_variants` prices
several variants from one launch's scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.compress.backend import DEFAULT_BACKEND
from repro.core.alphabet import encode
from repro.core.chunking import plan_chunks, required_overlap
from repro.core.dfa import DFA

# Re-exported: the benchmark's span recorders (perf/tracing.py) and
# their smoke test look scan_tiled up on this module.
from repro.core.tiled import scan_tiled  # noqa: F401
from repro.errors import LaunchError
from repro.gpu.coalesce import (
    CoalesceSummary,
    coalesce_halfwarp_batch,
    cooperative_word_addresses,
    strided_chunk_addresses,
)
from repro.gpu.counters import EventCounters
from repro.gpu.device import Device
from repro.gpu.geometry import LaunchConfig
from repro.gpu.latency import KernelCost
from repro.gpu.layouts import BlockGeometry, StoreScheme, get_scheme
from repro.gpu.shared_memory import SharedAccessSummary, summarize
from repro.kernels.base import (
    CostParams,
    KernelResult,
    ScanSegment,
    launch_for,
    price_texture,
    run_on_device,
    scan_segment,
)
from repro.obs import coalesce

#: Paper geometry: 128 threads x 64-byte chunks = 8 KB staged per block.
DEFAULT_THREADS_PER_BLOCK = 128
DEFAULT_CHUNK_BYTES = 64

#: Shared memory held back for "other works" (paper Section IV-B-3).
DEFAULT_RESERVED_SHARED = 2048


@dataclass
class SharedScan:
    """The scheme-independent half of a shared-kernel measurement: one
    scan (:func:`repro.kernels.base.scan_segment`) and the block
    geometry and launch it ran under."""

    seg: ScanSegment
    geom: BlockGeometry
    input_bytes: int
    window_len: int
    n_threads: int
    launch: LaunchConfig


@dataclass
class SharedMeasurement(SharedScan):
    """Everything measured from one functional shared-kernel run: the
    scan plus one store scheme's per-block staging summaries."""

    scheme_name: str
    cooperative_staging: bool
    staging_global: CoalesceSummary  # per block
    staging_stores: SharedAccessSummary  # per block
    match_loads: SharedAccessSummary  # per block
    #: False = the texture-placement ablation: the STT lives in plain
    #: (uncached) global memory; every fetch pays a DRAM round trip.
    stt_in_texture: bool = True


def measure_shared(
    dfa: DFA,
    data,
    config,
    *,
    scheme: str = "diagonal",
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    reserved_shared: int = DEFAULT_RESERVED_SHARED,
    params: Optional[CostParams] = None,
    stt_in_texture: bool = True,
    tracer=None,
    stt_backend: str = DEFAULT_BACKEND,
    gather_table=None,
) -> SharedMeasurement:
    """Functional pass + event measurement (no pricing).

    The matching phase is one AC scan segment
    (:func:`repro.kernels.base.scan_segment`); :func:`stage_shared`
    then adds ``scheme``'s staging and bank summaries.  ``scheme`` and
    ``stt_in_texture`` change only those and the pricing, so
    :func:`run_shared_variants` stages one measurement several ways
    instead of rescanning.  ``gather_table`` is the device's verified
    copy a launch scans through (default: the DFA's memo).
    """
    params = params or CostParams()
    store = get_scheme(scheme)
    arr = encode(data, name="data")

    overlap = required_overlap(dfa.patterns.max_length)
    geom = BlockGeometry(
        n_threads=threads_per_block,
        chunk_bytes=chunk_bytes,
        overlap_bytes=overlap,
        lanes=config.half_warp,
        n_banks=config.shared_banks,
    )
    shared_bytes = geom.shared_bytes_needed + reserved_shared
    if shared_bytes > config.shared_mem_per_sm:
        raise LaunchError(
            f"staging buffer ({shared_bytes} B incl. {reserved_shared} B "
            f"reserved) exceeds shared memory ({config.shared_mem_per_sm} B); "
            "reduce chunk_bytes or threads_per_block"
        )

    plan = plan_chunks(arr.size, chunk_bytes, overlap)
    seg = scan_segment(
        dfa,
        arr,
        plan,
        config,
        params,
        stt_backend=stt_backend,
        tracer=coalesce(tracer),
        gather_table=gather_table,
    )
    scan = SharedScan(
        seg=seg,
        geom=geom,
        input_bytes=int(arr.size),
        window_len=plan.window_len,
        n_threads=plan.n_chunks,
        launch=launch_for(plan.n_chunks, threads_per_block, shared_bytes),
    )
    return stage_shared(scan, store, config, stt_in_texture=stt_in_texture)


def stage_shared(
    scan: SharedScan,
    store: StoreScheme,
    config,
    *,
    stt_in_texture: bool = True,
) -> SharedMeasurement:
    """A scan's measurement under one store scheme and STT placement.

    The staging and bank summaries are data-independent per-block
    templates (identical across blocks; scaled at pricing), so staging
    a scan under another scheme never rescans.
    """
    geom = scan.geom
    if store.cooperative_staging:
        g_addr = cooperative_word_addresses(
            0, geom.staged_words, geom.n_threads, lanes=geom.lanes
        )
    else:
        g_addr = np.concatenate(
            [
                strided_chunk_addresses(
                    0, geom.chunk_bytes, 4 * q, geom.n_threads,
                    lanes=geom.lanes,
                )
                for q in range(geom.chunk_words)
            ]
        )
    staging_global = coalesce_halfwarp_batch(
        g_addr,
        access_bytes=4,
        segment_bytes=config.coalesce_segment_bytes,
        min_transaction_bytes=config.min_transaction_bytes,
    )
    st_addr, st_act = store.staging_store_addresses(geom)
    staging_stores = summarize(
        st_addr, config.shared_banks, config.bank_width_bytes, active=st_act
    )
    ld_addr, ld_act = store.match_load_addresses(geom)
    match_loads = summarize(
        ld_addr, config.shared_banks, config.bank_width_bytes, active=ld_act
    )

    return SharedMeasurement(
        seg=scan.seg,
        geom=geom,
        input_bytes=scan.input_bytes,
        window_len=scan.window_len,
        n_threads=scan.n_threads,
        launch=scan.launch,
        scheme_name=store.name,
        cooperative_staging=store.cooperative_staging,
        staging_global=staging_global,
        staging_stores=staging_stores,
        match_loads=match_loads,
        stt_in_texture=stt_in_texture,
    )


def price_shared(
    meas: SharedMeasurement,
    device: Device,
    params: Optional[CostParams] = None,
) -> KernelResult:
    """Assemble and price the cost of a measured run."""
    params = params or CostParams()
    config = device.config
    occupancy = meas.launch.validate(config)
    nb = meas.launch.n_blocks
    seg, tex = meas.seg, meas.seg.tex

    # Cross-warp bank interference under miss-driven multithreading —
    # the paper's stated Fig. 23 mechanism (see CostParams notes).
    warps = occupancy.warps_per_sm
    interference = 1.0 + params.bank_interference_beta * (
        tex.dram_instr_rate
    ) * max(warps - 1, 0)
    # The matching loop reads shared memory one *byte* per iteration;
    # the word-granular template repeats for each of the 4 bytes with
    # identical bank behaviour.
    ld_accesses = meas.match_loads.accesses * 4
    ld_serialized = meas.match_loads.serialized_accesses * 4
    ld_excess_eff = (ld_serialized - ld_accesses) * interference
    st_excess = (
        meas.staging_stores.serialized_accesses - meas.staging_stores.accesses
    )

    warp_iterations = meas.window_len * (
        -(-meas.n_threads // config.warp_size)
    )
    counters = EventCounters(
        bytes_owned=meas.input_bytes,
        bytes_scanned=seg.bytes_scanned,
        global_transactions=meas.staging_global.transactions * nb,
        global_bytes=meas.staging_global.bus_bytes * nb,
        global_useful_bytes=meas.staging_global.useful_bytes * nb,
        global_warp_events=meas.staging_global.accesses * nb,
        shared_accesses=(meas.staging_stores.accesses + ld_accesses) * nb,
        shared_serialized_accesses=(
            meas.staging_stores.serialized_accesses + ld_serialized
        )
        * nb,
        texture_accesses=tex.accesses,
        # "Misses" = fills from device memory; L1 misses served by the
        # on-chip texture L2 are not counted against the hit rate.
        texture_misses=tex.dram_line_requests,
        warp_iterations=warp_iterations,
        raw_match_writes=seg.raw_hits,
    )

    tex_price = price_texture(tex, seg.backend_cost, config, params)
    cpwi = config.cycles_per_warp_instruction
    shared_cycles = (
        (meas.staging_stores.accesses + st_excess + ld_accesses + ld_excess_eff)
        * nb
        * config.shared_access_cycles
    )
    compute = (
        warp_iterations * params.instr_per_iter_shared * cpwi
        + shared_cycles
        + meas.staging_global.accesses * nb * params.instr_per_staged_word * cpwi
        + tex_price.hit_cycles
        + seg.raw_hits / config.warp_size * params.instr_per_match_write * cpwi
        + nb * params.sync_cycles_per_block
    )
    compute += tex_price.backend_cycles

    match_bytes = seg.raw_hits * 8
    staging_txns = meas.staging_global.transactions * nb
    scatter = config.dram_scatter_efficiency
    if not meas.stt_in_texture:
        # Texture-placement ablation (DESIGN.md §5.3): the STT sits in
        # plain global memory, which compute-1.x hardware does not
        # cache — every fetch instruction stalls a DRAM round trip and
        # every distinct line is a scattered transaction.
        stt_dependent = tex.accesses * config.global_latency_cycles
        stt_lines = tex.total_line_requests * tex_price.relief
        stt_bus = stt_lines * config.texture_cache.line_bytes / scatter
    else:
        stt_dependent = tex_price.dependent_cycles
        stt_lines = tex_price.dram_lines
        stt_bus = tex_price.dram_bytes / scatter
    if meas.cooperative_staging:
        dependent = stt_dependent
        staging_bus = counters.global_bytes  # sequential stream: peak BW
    else:
        # Naive staging: each thread's load feeds its own store — the
        # warp stalls a DRAM round-trip per staged word row — and the
        # scattered transactions run at degraded DRAM efficiency.
        dependent = (
            stt_dependent
            + meas.staging_global.accesses * nb * config.global_latency_cycles
        )
        staging_bus = counters.global_bytes / scatter
    cost = KernelCost(
        counters=counters,
        occupancy=occupancy,
        compute_cycles_total=compute,
        dependent_latency_cycles=dependent,
        mem_requests_pipelined=staging_txns + stt_lines,
        mem_bytes_total=staging_bus + stt_bus + match_bytes,
        input_bytes=meas.input_bytes,
    )
    timing = device.launch(meas.launch, cost)
    return KernelResult(
        name="shared_memory",
        matches=seg.matches,
        counters=counters,
        timing=timing,
        launch=meas.launch,
        occupancy=occupancy,
        scheme=meas.scheme_name,
    )


def run_shared_kernel(
    dfa: DFA,
    data,
    device: Optional[Device] = None,
    *,
    scheme: str = "diagonal",
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    reserved_shared: int = DEFAULT_RESERVED_SHARED,
    params: Optional[CostParams] = None,
    stt_in_texture: bool = True,
    tracer=None,
    stt_backend: str = DEFAULT_BACKEND,
) -> KernelResult:
    """Run the shared-memory kernel on *data* (measure + price).

    The device lifecycle — checksummed input copy, texture bind and
    verification, paired release — is
    :func:`repro.kernels.base.run_on_device`; ``tracer`` (default: the
    device's, else the no-op tracer) records its spans.
    """
    return run_shared_variants(
        dfa,
        data,
        device,
        variants={scheme: (scheme, stt_in_texture)},
        threads_per_block=threads_per_block,
        chunk_bytes=chunk_bytes,
        reserved_shared=reserved_shared,
        params=params,
        tracer=tracer,
        stt_backend=stt_backend,
    )[scheme]


def run_shared_variants(
    dfa: DFA,
    data,
    device: Optional[Device] = None,
    *,
    variants: Mapping[str, Tuple[str, bool]],
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    reserved_shared: int = DEFAULT_RESERVED_SHARED,
    params: Optional[CostParams] = None,
    tracer=None,
    stt_backend: str = DEFAULT_BACKEND,
) -> Dict[str, KernelResult]:
    """Price several shared-kernel variants from one launch's scan.

    ``variants`` maps a name to its ``(scheme, stt_in_texture)``.  The
    scheme and STT placement change only the staging templates and the
    pricing (docs/MODEL.md §14), so one
    :func:`repro.kernels.base.run_on_device` launch — one input copy,
    bind, verify and :func:`measure_shared` of the first variant —
    prices them all, each byte-identical to its own
    :func:`run_shared_kernel` launch.  The ``kernel_body`` span carries
    the first variant's scheme and result.
    """
    (first, (scheme, in_texture)), *rest = variants.items()
    rest = [(name, get_scheme(s), t) for name, (s, t) in rest]
    results: Dict[str, KernelResult] = {}

    def body(staged, device, tracer, gather_table):
        meas = measure_shared(
            dfa,
            staged,
            device.config,
            scheme=scheme,
            threads_per_block=threads_per_block,
            chunk_bytes=chunk_bytes,
            reserved_shared=reserved_shared,
            params=params,
            stt_in_texture=in_texture,
            tracer=tracer,
            stt_backend=stt_backend,
            gather_table=gather_table,
        )
        results[first] = price_shared(meas, device, params)
        for name, store, stt_in_texture in rest:
            other = stage_shared(
                meas, store, device.config, stt_in_texture=stt_in_texture
            )
            results[name] = price_shared(other, device, params)
        return results[first]

    run_on_device(
        "shared_memory", dfa, data, device, tracer, body,
        stt_backend=stt_backend, scheme=scheme,
    )
    return results
