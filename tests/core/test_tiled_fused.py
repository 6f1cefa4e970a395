"""Fused-gather engine internals: parity, downcast, and allocation discipline.

The paper-scale perf push rebuilt the tiled hot path around a
column-major fused table (``col_flat[cls_lut[byte] + state]``), a
uint16 state downcast for small machines, and a thread-local buffer
pool.  These tests pin the three properties that rewrite must not
lose:

* the fused step is value-identical to the plain dense lookup
  ``dfa.stt.table[state, byte]`` for the dense and compact tables;
* the uint16 storage downcast never changes a single observable
  (matches, raw hits, bytes scanned, sink histograms) — values, not
  storage width, are the contract;
* the steady-state scan allocates nothing per tile: every ``np.take``
  lands in a pooled ``out=`` buffer (the old engine's per-tile
  intp-cast transients are a regression this file guards against).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.tiled as tiled
from repro.core import DFA, PatternSet
from repro.core.alphabet import STATE_DTYPE
from repro.core.tiled import (
    GatherKernel,
    StateVisitHistogram,
    clear_tile_buffer_pool,
    scan_tiled,
    tile_state_dtype,
)


@pytest.fixture(scope="module")
def small_dfa():
    return DFA.build(PatternSet([b"he", b"she", b"his", b"hers"]))


def _scan_outcome(dfa, data, **kw):
    hist = StateVisitHistogram(dfa.n_states)
    res = scan_tiled(dfa, data, sinks=[hist], **kw)
    return (
        res.matches.ends.tolist(),
        res.matches.pattern_ids.tolist(),
        res.raw_hits,
        res.bytes_scanned,
        hist.hist.tolist(),
    )


class TestStepFusedParity:
    """step_fused ≡ the dense STT lookup, element for element."""

    @pytest.mark.parametrize("compact", [False, True])
    def test_fused_equals_reference_step(self, small_dfa, compact):
        dfa = small_dfa
        backend = "compact" if compact else "dense"
        fused = GatherKernel(dfa, dfa.gather_table(backend))
        n = 97
        fused.alloc(n)
        rng = np.random.default_rng(7)
        flags = np.asarray(dfa.stt.match_flags) != 0
        prev = rng.integers(0, dfa.n_states, size=n, dtype=np.int64)
        for _ in range(16):
            symbols = rng.integers(0, 256, size=n, dtype=np.uint8)
            want = dfa.stt.table[prev, symbols]
            got = np.empty(n, dtype=fused.row_dtype)
            hit = np.empty(n, dtype=np.bool_)
            fused.step_fused(prev, symbols, got, hit)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(hit, flags[want])
            prev = got

    def test_adapter_backends_report_unfused(self, small_dfa):
        table = small_dfa.gather_table("bitmap")
        k = GatherKernel(small_dfa, table)
        assert k.adapter is table
        assert k.col_flat is None


class TestStateDtypeDowncast:
    def test_small_machine_uses_uint16(self, small_dfa):
        assert tile_state_dtype(small_dfa) == np.dtype(np.uint16)

    def test_limit_boundary_forces_wide(self, small_dfa, monkeypatch):
        monkeypatch.setattr(tiled, "U16_STATE_LIMIT", small_dfa.n_states)
        assert tile_state_dtype(small_dfa) == np.dtype(STATE_DTYPE)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=600),
        tile_len=st.integers(min_value=1, max_value=64),
        chunk_len=st.integers(min_value=1, max_value=96),
        backend=st.sampled_from(["dense", "compact", "banded", "bitmap"]),
    )
    def test_downcast_is_invisible(self, data, tile_len, chunk_len, backend):
        """uint16 vs wide storage: every observable byte-identical."""
        dfa = DFA.build(PatternSet([b"he", b"she", b"his", b"hers", b"\x00e"]))
        arr = np.frombuffer(data, dtype=np.uint8).copy()
        kw = dict(
            tile_len=tile_len, chunk_len=chunk_len, stt_backend=backend
        )
        saved = tiled.U16_STATE_LIMIT
        try:
            tiled.U16_STATE_LIMIT = 1 << 16
            narrow = _scan_outcome(dfa, arr, **kw)
            tiled.U16_STATE_LIMIT = 1  # force STATE_DTYPE buffers/tables
            wide = _scan_outcome(dfa, arr, **kw)
        finally:
            tiled.U16_STATE_LIMIT = saved
        assert narrow == wide


@pytest.fixture()
def quiet_workload():
    """1 MB of low bytes + patterns of high bytes: zero matches, so the
    scan is pure steady-state stepping (no extraction allocations)."""
    dfa = DFA.build(PatternSet([b"\xfe\xff", b"\xff\xfe\xff\xfe"]))
    rng = np.random.default_rng(11)
    data = rng.integers(0, 128, size=1_000_000, dtype=np.uint8)
    return dfa, data


class TestAllocationDiscipline:
    """Satellite regression: the fused scan has no per-tile transients."""

    def test_every_take_is_preallocated(self, quiet_workload, monkeypatch):
        """No ``np.take`` without ``out=`` on the steady-state path.

        The old engine's row-at-a-time flag gather let ``np.take``
        cast its index array to intp, allocating a fresh
        (tile_len × n_threads) transient per tile; the fused engine
        stages every gather through pooled buffers.
        """
        dfa, data = quiet_workload
        scan_tiled(dfa, data)  # warm-up: tables + pool outside the spy
        real_take = np.take
        outs = []

        def spy(a, indices, axis=None, out=None, **kw):
            outs.append(out is not None)
            return real_take(a, indices, axis=axis, out=out, **kw)

        monkeypatch.setattr(np, "take", spy)
        res = scan_tiled(dfa, data)
        assert res.matches.ends.size == 0  # workload premise
        assert outs, "spy saw no gathers — engine changed shape?"
        assert all(outs), (
            f"{outs.count(False)} of {len(outs)} np.take calls allocated "
            "their result instead of landing in a pooled out= buffer"
        )

    def test_steady_state_peak_is_tile_free(self, quiet_workload):
        """Peak traced allocation stays far under one tile transient.

        A single resurrected (tile_len × n_threads) int64 transient on
        this workload is ~500 KB; the warm fused scan's whole
        footprint (plan, analytic validity, kernel scratch) is well
        under half that.
        """
        dfa, data = quiet_workload
        scan_tiled(dfa, data)  # warm-up
        tracemalloc.start()
        try:
            scan_tiled(dfa, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256_000, f"steady-state scan peaked at {peak} bytes"

    def test_pool_arenas_are_reused_across_scans(self, quiet_workload):
        dfa, data = quiet_workload
        clear_tile_buffer_pool()
        scan_tiled(dfa, data)
        first = {k: id(v) for k, v in tiled._POOL.arenas.items()}
        assert first, "scan returned no arenas to the pool"
        scan_tiled(dfa, data)
        second = {k: id(v) for k, v in tiled._POOL.arenas.items()}
        assert first == second
