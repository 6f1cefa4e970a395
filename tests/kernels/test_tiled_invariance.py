"""STT-backend invariance of the modeled kernels.

The gather backend is a storage strategy, not a model change: for any
backend (dense, compact, ...), every kernel must produce byte-identical
matches AND byte-identical modeled counters (texture hits/misses,
coalescing transactions, bank-conflict excess) to the default
configuration.  These tests pin that contract so future storage work
cannot silently shift the performance model.
"""

import numpy as np
import pytest

from repro.core import naive_find_all
from repro.gpu import Device
from repro.kernels import run_global_kernel, run_pfac_kernel, run_shared_kernel

TEXT = b"she sells sea shells by the seashore; ushers saw hers " * 120


def _counters_equal(a, b):
    """Field-by-field EventCounters comparison with a useful diff."""
    da, db = vars(a), vars(b)
    diff = {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    assert not diff, f"counters differ: {diff}"


class TestGlobalKernel:
    def test_compact_invariance(self, paper_dfa, paper_patterns):
        base = run_global_kernel(paper_dfa, TEXT, Device(), chunk_len=100)
        oracle = set(naive_find_all(paper_patterns, TEXT))
        assert base.matches.as_set() == oracle
        for backend in ("dense", "compact"):
            r = run_global_kernel(
                paper_dfa, TEXT, Device(), chunk_len=100, stt_backend=backend
            )
            assert r.matches == base.matches
            _counters_equal(r.counters, base.counters)
            assert r.timing.seconds == base.timing.seconds


class TestSharedKernel:
    @pytest.mark.parametrize("scheme", ["diagonal", "naive"])
    def test_compact_invariance(self, english_dfa, scheme):
        base = run_shared_kernel(english_dfa, TEXT, Device(), scheme=scheme)
        for backend in ("dense", "compact"):
            r = run_shared_kernel(
                english_dfa, TEXT, Device(), scheme=scheme, stt_backend=backend
            )
            assert r.matches == base.matches
            _counters_equal(r.counters, base.counters)
            assert r.timing.seconds == base.timing.seconds


class TestPfacKernel:
    def test_compact_invariance(self, paper_dfa, paper_patterns):
        dense = run_pfac_kernel(paper_dfa, TEXT, Device(), stt_backend="dense")
        comp = run_pfac_kernel(paper_dfa, TEXT, Device(), stt_backend="compact")
        assert dense.matches == comp.matches
        assert dense.matches.as_set() == set(
            naive_find_all(paper_patterns, TEXT)
        )
        _counters_equal(dense.counters, comp.counters)
        assert dense.timing.seconds == comp.timing.seconds


STT_BACKENDS = ["dense", "compact", "banded", "bitmap"]


class TestSttBackendInvariance:
    """The storage-backend contract across every kernel.

    Counters (and texture line ids, which feed them) are *always*
    computed against the dense layout — a compressed table changes
    what a lookup costs, never which events the model counts.  So:
    matches and counters are backend-invariant everywhere; priced
    timing is bit-equal for dense vs compact (same footprint, same
    arithmetic) and allowed to differ for banded/bitmap, whose gather
    arithmetic and footprint relief are explicitly priced.
    """

    @pytest.mark.parametrize("backend", STT_BACKENDS)
    def test_counters_invariant_all_kernels(self, english_dfa, backend):
        base_shared = run_shared_kernel(english_dfa, TEXT, Device())
        r = run_shared_kernel(
            english_dfa, TEXT, Device(), stt_backend=backend
        )
        assert r.matches == base_shared.matches
        _counters_equal(r.counters, base_shared.counters)

        base_global = run_global_kernel(
            english_dfa, TEXT, Device(), chunk_len=100
        )
        g = run_global_kernel(
            english_dfa, TEXT, Device(), chunk_len=100, stt_backend=backend
        )
        assert g.matches == base_global.matches
        _counters_equal(g.counters, base_global.counters)

    @pytest.mark.parametrize("backend", STT_BACKENDS)
    def test_counters_invariant_pfac(self, english_dfa, backend):
        base = run_pfac_kernel(english_dfa, TEXT, Device())
        r = run_pfac_kernel(
            english_dfa, TEXT, Device(), stt_backend=backend
        )
        assert r.matches == base.matches
        _counters_equal(r.counters, base.counters)

    def test_timing_equal_dense_compact_only(self, english_dfa):
        for runner in (
            lambda be: run_shared_kernel(
                english_dfa, TEXT, Device(), stt_backend=be
            ),
            lambda be: run_global_kernel(
                english_dfa, TEXT, Device(), chunk_len=100, stt_backend=be
            ),
            lambda be: run_pfac_kernel(
                english_dfa, TEXT, Device(), stt_backend=be
            ),
        ):
            dense = runner("dense").timing.seconds
            assert runner("compact").timing.seconds == dense
            # compressed layouts are *priced*: their timing must at
            # least not be silently identical-by-accident AND identical
            # counters were already asserted above — so any difference
            # here is exactly the documented gather/footprint pricing.
            for be in ("banded", "bitmap"):
                assert runner(be).timing.seconds > 0
