"""Data-parallel multicore CPU matcher — the honest ``serial_mt`` baseline.

The paper quotes its GPU speedups against a single CPU core, but the
natural CPU competitor is the chunk-parallel multicore port (Arudchutha
et al., PAPERS.md): split the input into one slab per worker, span each
slab by the ``+X`` overlap rule from :mod:`repro.core.chunking`, scan
the slabs concurrently, and keep only the matches that *start* inside
the owning slab — exactly the ownership rule the GPU kernels apply per
thread, so the union of owned matches equals the serial match set.

Each worker drives its slab through the tiled lockstep engine
(:mod:`repro.core.tiled`), whose hot loop is NumPy gathers — NumPy
releases the GIL inside array ops, so a :class:`~concurrent.futures.
ThreadPoolExecutor` yields real parallelism without pickling the STT
into subprocesses.  The result is byte-identical to
:func:`~repro.core.serial.match_serial` (property-tested, including
slab-seam and last-short-slab cases).

:func:`measure_multicore` times the real thing — wall-clock
``scan_multicore`` against the single-threaded scan on the same bytes —
and is what cross-validates the modeled
:func:`~repro.bench.cpu_model.multicore_cost` speedup curve in CI.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.compress.backend import DEFAULT_BACKEND
from repro.core.alphabet import BytesLike, encode
from repro.core.chunking import plan_chunks, required_overlap
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import DEFAULT_TILE_LEN, scan_tiled
from repro.errors import ChunkingError

#: Owned bytes per lockstep lane *inside* each worker's slab.  Smaller
#: than the serial default (4096) on purpose: more lanes per NumPy op
#: means each op's GIL-released body dominates the Python dispatch that
#: still serializes threads, which is what multicore scaling lives on.
DEFAULT_MC_CHUNK = 1024


def usable_cores() -> int:
    """Cores this process may run on; the worker count for ``workers=0``.

    ``os.cpu_count()`` also counts cores outside the process's CPU
    affinity set (a cpuset-restricted container cannot run on them),
    so it is only the fallback where the affinity call is missing.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(int(os.cpu_count() or 1), 1)


@dataclass(frozen=True)
class WorkerStats:
    """One worker's slice of a multicore scan."""

    worker: int
    start: int
    owned_end: int
    scanned_bytes: int
    matches: int
    seconds: float


@dataclass(frozen=True)
class MultiCoreScanResult:
    """Outcome of one :func:`scan_multicore` call."""

    matches: MatchResult
    workers: int
    n_slabs: int
    input_bytes: int
    #: Total bytes scanned including the +X overlap redundancy.
    scanned_bytes: int
    wall_seconds: float
    worker_stats: List[WorkerStats]

    @property
    def overlap_redundancy(self) -> float:
        """``scanned_bytes / input_bytes`` — the price of slab overlap."""
        if self.input_bytes == 0:
            return 1.0
        return self.scanned_bytes / self.input_bytes


def _slab_plan(n: int, workers: int, overlap: int):
    """One slab per worker (the last may own fewer bytes)."""
    slab_len = max(-(-n // workers), 1)
    return plan_chunks(n, slab_len, overlap)


def scan_multicore(
    dfa: DFA,
    data: BytesLike,
    *,
    workers: int = 0,
    chunk_len: int = DEFAULT_MC_CHUNK,
    tile_len: int = DEFAULT_TILE_LEN,
) -> MultiCoreScanResult:
    """Chunk-parallel multicore scan, byte-identical to the serial scan.

    The input is split into ``workers`` slabs; worker ``w`` scans the
    window ``data[starts[w] : owned_ends[w] + overlap]`` through the
    tiled engine and owns exactly the matches whose *start* lies inside
    ``[starts[w], owned_ends[w])`` — the same start-ownership rule as
    the GPU kernels, so no cross-slab occurrence is lost or doubled.

    ``workers = 0`` uses one worker per usable core.  ``chunk_len``
    is the per-lane owned length *inside* each slab (the lockstep
    parallelism the tiled engine vectorizes over).
    """
    if workers < 0:
        raise ChunkingError(f"workers must be >= 0, got {workers}")
    workers = workers or usable_cores()
    arr = encode(data, name="data")
    n = int(arr.size)
    if n == 0:
        return MultiCoreScanResult(
            matches=MatchResult.empty(),
            workers=workers,
            n_slabs=0,
            input_bytes=0,
            scanned_bytes=0,
            wall_seconds=0.0,
            worker_stats=[],
        )

    max_len = int(dfa.patterns.max_length)
    overlap = required_overlap(max_len)
    plan = _slab_plan(n, workers, overlap)
    # Build the shared gather table once, before the workers need it.
    dfa.gather_table(DEFAULT_BACKEND)
    lengths = dfa.pattern_lengths

    def scan_slab(w: int) -> WorkerStats:
        t0 = time.perf_counter()
        s = int(plan.starts[w])
        owned_end = int(plan.owned_ends[w])
        window_end = min(owned_end + overlap, n)
        local = arr[s:window_end]
        res = scan_tiled(
            dfa,
            local,
            chunk_len=chunk_len,
            overlap=overlap,
            tile_len=tile_len,
        )
        ends = res.matches.ends + s
        pids = res.matches.pattern_ids
        # Slab ownership: keep matches starting before owned_end.  The
        # lower bound is implicit — local starts are >= 0, so global
        # starts are >= s already.
        starts_of_match = ends - lengths[pids] + 1
        own = starts_of_match < owned_end
        results[w] = (ends[own], pids[own])
        return WorkerStats(
            worker=w,
            start=s,
            owned_end=owned_end,
            scanned_bytes=int(local.size),
            matches=int(np.count_nonzero(own)),
            seconds=time.perf_counter() - t0,
        )

    results: List[Optional[tuple]] = [None] * plan.n_chunks
    t0 = time.perf_counter()
    if plan.n_chunks == 1 or workers == 1:
        stats = [scan_slab(w) for w in range(plan.n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(scan_slab, range(plan.n_chunks)))
    wall = time.perf_counter() - t0

    ends = np.concatenate([r[0] for r in results])
    pids = np.concatenate([r[1] for r in results])
    return MultiCoreScanResult(
        matches=MatchResult(ends, pids),
        workers=workers,
        n_slabs=plan.n_chunks,
        input_bytes=n,
        scanned_bytes=sum(st.scanned_bytes for st in stats),
        wall_seconds=wall,
        worker_stats=stats,
    )


class MultiCoreMatcher:
    """Reusable multicore matcher over a fixed dictionary.

    Thin stateful wrapper around :func:`scan_multicore` that pins the
    worker count and engine knobs once; the compacted transition table
    is built lazily on the first scan and shared (read-only) by every
    worker thread thereafter.

    Examples
    --------
    >>> from repro.core import DFA, PatternSet
    >>> m = MultiCoreMatcher(DFA.build(PatternSet.from_strings(["hers"])), workers=2)
    >>> m.scan(b"ushershers").as_pairs()
    [(5, 0), (9, 0)]
    """

    __slots__ = ("dfa", "workers", "chunk_len", "tile_len")

    def __init__(
        self,
        dfa: DFA,
        *,
        workers: int = 0,
        chunk_len: int = DEFAULT_MC_CHUNK,
        tile_len: int = DEFAULT_TILE_LEN,
    ):
        if workers < 0:
            raise ChunkingError(f"workers must be >= 0, got {workers}")
        self.dfa = dfa
        self.workers = workers or usable_cores()
        self.chunk_len = chunk_len
        self.tile_len = tile_len

    def scan(self, data: BytesLike) -> MatchResult:
        """Scan *data*; returns the match set only."""
        return self.scan_result(data).matches

    def scan_result(self, data: BytesLike) -> MultiCoreScanResult:
        """Scan *data*; returns matches plus per-worker statistics."""
        return scan_multicore(
            self.dfa,
            data,
            workers=self.workers,
            chunk_len=self.chunk_len,
            tile_len=self.tile_len,
        )


@dataclass(frozen=True)
class MulticoreMeasurement:
    """Wall-clock comparison of the multicore scan vs the serial scan."""

    workers: int
    input_bytes: int
    serial_seconds: float
    multicore_seconds: float
    host_cores: int

    @property
    def speedup(self) -> float:
        """Measured wall-clock speedup (serial / multicore)."""
        if self.multicore_seconds <= 0:
            return 0.0
        return self.serial_seconds / self.multicore_seconds

    @property
    def efficiency(self) -> float:
        """Measured speedup divided by the worker count."""
        return self.speedup / self.workers if self.workers else 0.0

    def describe(self) -> str:
        """One report line."""
        return (
            f"{self.input_bytes / 2**20:.1f} MiB x {self.workers} workers "
            f"on {self.host_cores} cores: serial "
            f"{self.serial_seconds * 1e3:.1f} ms, multicore "
            f"{self.multicore_seconds * 1e3:.1f} ms -> "
            f"{self.speedup:.2f}x (efficiency {self.efficiency:.0%})"
        )


def measure_multicore(
    dfa: DFA,
    data: BytesLike,
    *,
    workers: int = 0,
    repeats: int = 3,
    chunk_len: int = DEFAULT_MC_CHUNK,
    tile_len: int = DEFAULT_TILE_LEN,
) -> MulticoreMeasurement:
    """Measure real wall-clock ``scan_multicore`` speedup on this host.

    Both sides scan the same bytes through the same tiled engine —
    the serial leg is a one-worker :func:`scan_multicore`, so the only
    difference between the legs is thread parallelism (not engine
    shape).  ``min`` over *repeats* rejects scheduler noise the usual
    way.  This is a *measurement*, so it depends on the machine it
    runs on; the deterministic bench cells use the modeled
    :func:`~repro.bench.cpu_model.multicore_cost` curve, which a CI
    test validates against this measurement (docs/MODEL.md §11).
    """
    if repeats < 1:
        raise ChunkingError(f"repeats must be >= 1, got {repeats}")
    workers = workers or usable_cores()
    arr = encode(data, name="data")
    # Untimed warm-up: pays one-time costs (compact-table build, buffer
    # allocation, thread-pool spinup) outside both timed legs.
    scan_multicore(
        dfa, arr, workers=workers, chunk_len=chunk_len, tile_len=tile_len
    )

    def best(n_workers: int) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            scan_multicore(
                dfa, arr, workers=n_workers, chunk_len=chunk_len,
                tile_len=tile_len,
            )
            times.append(time.perf_counter() - t0)
        return min(times)

    serial_s = best(1)
    mt_s = best(workers)
    return MulticoreMeasurement(
        workers=workers,
        input_bytes=int(arr.size),
        serial_seconds=serial_s,
        multicore_seconds=mt_s,
        host_cores=usable_cores(),
    )
