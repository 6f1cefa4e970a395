"""Data-parallel multicore CPU matcher — the honest ``serial_mt`` baseline.

The paper quotes its GPU speedups against a single CPU core, but the
natural CPU competitor is the multicore port (Arudchutha et al.,
PAPERS.md): one slab per worker, scanned concurrently.  Each slab runs
the single-thread scan (:func:`~repro.core.serial.scan_from`) entered
in the state the serial scan holds at its first byte, so it reports
exactly the serial matches that *end* inside it, and the slab results
concatenate into the canonical union without a sort.

The slabs run on a :class:`~concurrent.futures.ThreadPoolExecutor`:
NumPy releases the GIL inside array ops, so threads overlap without
pickling the STT into subprocesses — all but each op's Python
dispatch, which is why every slab sizes its lanes for the number of
slabs running at once (:func:`~repro.core.serial._lane_plan`).  One
slab is exactly :func:`~repro.core.serial.match_serial`'s plan.  The
result is byte-identical to ``match_serial`` (property-tested,
including matches across one or several seams and slabs too short to
vectorize).

:func:`measure_multicore` times the real thing — wall-clock
``scan_multicore`` against the serial scan on the same bytes — and
is what cross-validates the modeled
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
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.serial import scan_from, state_after
from repro.errors import ChunkingError


def usable_cores() -> int:
    """Cores this process may run on; the worker count for ``workers=0``.

    ``os.cpu_count()`` also counts cores outside the process's CPU
    affinity set (a cpuset-restricted container cannot run on them),
    so it is only the fallback where the affinity call is missing.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(int(os.cpu_count() or 1), 1)


def check_workers(workers) -> int:
    """*workers* as an ``int``; :class:`~repro.errors.ChunkingError`
    unless it is a non-negative integer (a ``bool`` is not)."""
    if (
        isinstance(workers, bool)
        or not isinstance(workers, (int, np.integer))
        or workers < 0
    ):
        raise ChunkingError(f"workers must be a non-negative int, got {workers!r}")
    return int(workers)


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
    #: Slab bytes plus the bytes re-read before each slab to carry its
    #: entering state in.
    scanned_bytes: int
    wall_seconds: float
    worker_stats: List[WorkerStats]

    @property
    def overlap_redundancy(self) -> float:
        """``scanned_bytes / input_bytes`` — the price of slab seams."""
        if self.input_bytes == 0:
            return 1.0
        return self.scanned_bytes / self.input_bytes


def scan_multicore(
    dfa: DFA, data: BytesLike, *, workers: int = 0
) -> MultiCoreScanResult:
    """Slab-parallel multicore scan, byte-identical to the serial scan.

    The input is split into one slab per worker (the last may be
    shorter).  Worker ``w`` walks from the root over at most
    ``max_length`` bytes before its slab ``[s, e)``, then runs
    :func:`~repro.core.serial.scan_from` over the slab from the state
    that walk ends in, so it reports exactly the serial matches whose
    *end* lies in ``[s, e)``.

    ``workers = 0`` uses one worker per usable core
    (:func:`usable_cores`).
    """
    workers = check_workers(workers) or usable_cores()
    arr = encode(data, name="data")
    n = int(arr.size)
    slab_len = max(-(-n // workers), 1)
    starts = range(0, n, slab_len)
    n_slabs = len(starts)
    lead_len = int(dfa.patterns.max_length)
    # Build the shared gather table once, before the workers need it.
    dfa.gather_table(DEFAULT_BACKEND)
    ends: List[Optional[np.ndarray]] = [None] * n_slabs
    pids: List[Optional[np.ndarray]] = [None] * n_slabs

    def scan_slab(w: int) -> WorkerStats:
        t0 = time.perf_counter()
        s = starts[w]
        e = min(s + slab_len, n)
        state = state_after(dfa, arr, s)
        matches, _ = scan_from(dfa, arr[s:e], state, slabs=n_slabs)
        ends[w] = matches.ends + s
        pids[w] = matches.pattern_ids
        return WorkerStats(
            worker=w,
            start=s,
            owned_end=e,
            scanned_bytes=e - max(s - lead_len, 0),
            matches=len(matches),
            seconds=time.perf_counter() - t0,
        )

    t0 = time.perf_counter()
    if n_slabs < 2:
        stats = [scan_slab(w) for w in range(n_slabs)]
    else:
        with ThreadPoolExecutor(max_workers=n_slabs) as pool:
            stats = list(pool.map(scan_slab, range(n_slabs)))
    wall = time.perf_counter() - t0

    if n_slabs:
        merged = MatchResult(np.concatenate(ends), np.concatenate(pids))
    else:
        merged = MatchResult.empty()
    return MultiCoreScanResult(
        matches=merged,
        workers=workers,
        n_slabs=n_slabs,
        input_bytes=n,
        scanned_bytes=sum(st.scanned_bytes for st in stats),
        wall_seconds=wall,
        worker_stats=stats,
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
) -> MulticoreMeasurement:
    """Measure real wall-clock ``scan_multicore`` speedup on this host.

    The serial leg is a one-worker :func:`scan_multicore`, which is
    the serial scan itself: one slab, entered at the root, on
    :func:`~repro.core.serial.match_serial`'s plan.  So the speedup is
    the multicore scan against what the ``serial`` backend runs.
    ``min`` over *repeats* rejects scheduler noise the usual way.
    This is a *measurement*, so it depends on the machine it runs on;
    the deterministic bench cells use the modeled
    :func:`~repro.bench.cpu_model.multicore_cost` curve, which a CI
    test validates against this measurement (docs/MODEL.md §11).
    """
    if repeats < 1:
        raise ChunkingError(f"repeats must be >= 1, got {repeats}")
    workers = check_workers(workers) or usable_cores()
    arr = encode(data, name="data")
    # Untimed warm-up: builds the DFA's gather tables.  Every call still
    # starts its own thread pool, whose threads allocate fresh tile
    # buffers, so each timed multicore run pays both of those.
    scan_multicore(dfa, arr, workers=workers)

    def best(n_workers: int) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            scan_multicore(dfa, arr, workers=n_workers)
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
