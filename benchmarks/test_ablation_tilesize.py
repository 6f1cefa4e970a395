"""Ablation — step-tile length of the tiled lockstep engine.

The tile length trades Python-level loop overhead (small tiles) against
per-tile working-set size (large tiles); the modeled GPU counters must
not move at all (the tile is an execution artifact, not a model knob).
The sweep records every (tile × size) point as a schema-v2 cell through
the session collector, and a 64 MB scan is run under ``tracemalloc`` to
pin the tentpole memory claim: peak incremental memory stays within a
fixed multiple of the (n_threads × tile_len) working set instead of
growing O(input) like the retained-trace path.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.core import plan_chunks
from repro.core.alphabet import STATE_DTYPE
from repro.core.chunking import build_windows, required_overlap
from repro.core.lockstep import LockstepTrace, extract_matches
from repro.core.tiled import scan_tiled

TILE_LENS = [32, 256, 1024]
SIZES = ["1MB", "10MB"]
N_PATTERNS = 1000


@pytest.mark.parametrize("tile_len", TILE_LENS)
def test_tile_size_sweep(benchmark, runner, tile_len):
    """Sweep tile × size as schema-v2 cells; counters must be identical."""
    saved = runner.tile_len
    runner.tile_len = tile_len
    try:
        results = benchmark.pedantic(
            lambda: [
                runner.run_cell(size, N_PATTERNS, kernels=("shared",))
                for size in SIZES
            ],
            rounds=1,
            iterations=1,
        )
    finally:
        runner.tile_len = saved
    for cell in results:
        sk = cell.kernels["shared"]
        print(
            f"\ntile={tile_len} {cell.size_label}: {sk.gbps:.2f} Gbps "
            f"tex_hit={sk.tex_hit_rate:.4f} matches={sk.matches}"
        )
        assert sk.matches > 0


def test_counters_tile_invariant(runner):
    """The modeled counters are byte-identical across tile lengths."""
    reference = None
    saved = runner.tile_len
    try:
        for tile_len in TILE_LENS:
            runner.tile_len = tile_len
            cell = runner.run_cell("1MB", N_PATTERNS, kernels=("shared",))
            counters = cell.kernels["shared"].counters
            if reference is None:
                reference = counters
            else:
                assert counters == reference, f"tile_len={tile_len} drifted"
    finally:
        runner.tile_len = saved


def test_peak_memory_bounded_by_tile_working_set(runner):
    """A 64 MB scan's peak incremental memory is O(n_threads × tile).

    The pre-PR engine materialized the whole (window_len, n_threads)
    state trace — O(input) — before extraction.  The tiled engine must
    stay within a fixed multiple of one tile's working set: we assert
    peak traced allocation ≤ 4 × (n_threads × tile_len × 4 B), which a
    retained trace of this input (> 256 MB) would blow past 16-fold.
    """
    n = 64 * 1024 * 1024
    chunk_len, tile_len = 4096, 256
    dfa = runner.dfa_for(N_PATTERNS)
    dfa.compact_stt()  # build the compacted table outside the traced region
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=n, dtype=np.uint8)

    plan = plan_chunks(n, chunk_len, required_overlap(dfa.patterns.max_length))
    budget = 4 * plan.n_chunks * tile_len * 4  # bytes

    tracemalloc.start()
    try:
        result = scan_tiled(dfa, data, plan=plan, tile_len=tile_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    print(
        f"\n64MB scan: peak={peak / 2**20:.1f} MiB "
        f"budget={budget / 2**20:.1f} MiB "
        f"(n_threads={plan.n_chunks}, tile={tile_len}), "
        f"matches={len(result.matches)}"
    )
    assert result.bytes_scanned >= n
    assert peak <= budget, (
        f"peak incremental memory {peak} exceeds "
        f"4 × tile working set {budget}"
    )


def _pre_pr_engine(dfa, data, plan):
    """The engine this PR replaced, verbatim: materialize the whole
    window matrix and state trace, dense-STT 2-D fancy-index with a
    per-step ``astype`` round trip, then extract from the full trace."""
    windows = build_windows(data, plan)
    window_len, n_threads = windows.shape
    next_states = dfa.stt.next_states
    states_after = np.empty((window_len, n_threads), dtype=STATE_DTYPE)
    state = np.zeros(n_threads, dtype=np.int64)
    for j in range(window_len):
        state = next_states[state, windows[j]].astype(np.int64, copy=False)
        states_after[j] = state
    positions = (
        plan.starts[None, :] + np.arange(window_len, dtype=np.int64)[:, None]
    )
    trace = LockstepTrace(
        states_after=states_after, valid=positions < plan.n, plan=plan
    )
    return extract_matches(dfa, trace)[0]


def test_tiled_throughput_vs_pre_pr_engine(runner):
    """The tiled+compacted engine beats the pre-PR engine ≥3× at 64 MB.

    At this size the pre-PR engine materializes ~0.8 GB of window /
    trace / position matrices, so it is memory-bound long before the
    δ-gather is; the tiled engine never leaves cache-resident buffers.
    (Measured ≈8× on the reference container; 3 is the acceptance
    floor with slack for noisy CI runners.)
    """
    n = 64 * 1024 * 1024
    chunk_len = 4096
    dfa = runner.dfa_for(N_PATTERNS)
    dfa.compact_stt()
    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, size=n, dtype=np.uint8)
    plan = plan_chunks(n, chunk_len, required_overlap(dfa.patterns.max_length))

    t0 = time.perf_counter()
    old_matches = _pre_pr_engine(dfa, data, plan)
    t_old = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = scan_tiled(dfa, data, plan=plan)
    t_tiled = time.perf_counter() - t0
    assert result.matches == old_matches  # byte-identical to the old engine
    speedup = t_old / t_tiled
    print(
        f"\n64MB/{N_PATTERNS}p: pre-PR={n / t_old / 2**20:.1f} MiB/s "
        f"tiled={n / t_tiled / 2**20:.1f} MiB/s ({speedup:.2f}x)"
    )
    assert speedup >= 3.0
