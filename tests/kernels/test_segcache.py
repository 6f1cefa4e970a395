"""No scan outlives its launch, and no automaton outlives its cache entry.

Three contracts, all load-bearing for long-lived gpu matchers, serving
processes and the paper-scale bench grids:

* a launch keeps nothing: once the caller drops a scan's result, its
  match arrays are freed, however many distinct inputs one matcher
  scans;
* a repeat of identical work is byte-identical, and pricing-only knobs
  (store scheme, STT placement) price one scan several ways inside one
  launch (:func:`~repro.kernels.shared_mem.run_shared_variants`);
* an automaton evicted from :class:`~repro.serve.cache.AutomatonCache`
  is freed together with its memoized gather/fused tables (which live
  *on* the DFA) across hot-swap epochs.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

from repro import Matcher
from repro.core.tiled import tile_state_dtype
from repro.gpu import Device
from repro.kernels.shared_mem import run_shared_kernel, run_shared_variants
from repro.serve.cache import AutomatonCache

TEXT = np.frombuffer(
    b"she sells seashells; he and hers went there with his hat " * 40,
    dtype=np.uint8,
).copy()


class TestNoRetention:
    def test_dropped_results_are_freed(self):
        """40 distinct inputs through one gpu matcher: each result's
        match arrays die with the caller's last reference."""
        m = Matcher(["he", "she", "his", "hers"], backend="gpu")
        rng = np.random.default_rng(2013)
        alphabet = np.frombuffer(b"hers i", dtype=np.uint8)
        for i in range(40):
            text = rng.choice(alphabet, size=4096 + i).astype(np.uint8)
            result = m.scan(text)
            assert len(result) > 0
            ref = weakref.ref(result.ends)
            del result
            gc.collect()
            assert ref() is None, f"scan {i}: match arrays still reachable"


class TestKernelMemoization:
    """Work is shared only inside one launch: a repeat launch scans
    again, byte-identically, and pricing-only knobs share one scan."""

    def test_repeat_run_is_byte_identical(self, english_dfa):
        first = run_shared_kernel(english_dfa, TEXT, Device())
        second = run_shared_kernel(english_dfa, TEXT, Device())
        assert second.matches == first.matches
        assert second.counters == first.counters
        assert second.timing == first.timing

    def test_pricing_only_knobs_share_one_segment(self, english_dfa):
        """scheme / stt_in_texture change pricing, not the scan: one
        launch prices each variant exactly as its own launch does."""
        variants = {
            "base": ("diagonal", True),
            "naive": ("naive", True),
            "glob": ("diagonal", False),
        }
        shared = run_shared_variants(
            english_dfa, TEXT, Device(), variants=variants
        )
        for name, (scheme, in_texture) in variants.items():
            own = run_shared_kernel(
                english_dfa, TEXT, Device(), scheme=scheme,
                stt_in_texture=in_texture,
            )
            assert shared[name].matches == own.matches
            assert shared[name].counters == own.counters
            assert shared[name].timing == own.timing
            assert shared[name].scheme == own.scheme
        assert shared["naive"].matches is shared["base"].matches
        # ...while the priced outcomes still differ where they should.
        assert shared["naive"].counters.bank_conflict_excess > 0
        assert shared["glob"].seconds != shared["base"].seconds


class TestAutomatonLifetime:
    """Eviction must drop the memoized gather tables too."""

    def _measure(self, dfa):
        res = run_shared_kernel(dfa, TEXT, Device())
        assert len(res.matches) >= 0  # keep no reference past this frame

    def test_evicted_automaton_is_freed(self):
        """A scanned DFA dies with its AutomatonCache entry.

        The fused/compact gather tables are cached *on* the DFA
        (``dense_fused_tables`` et al.), so proving the DFA is
        collectable proves the memoized tables went with it; a launch
        may keep no reference to either.
        """
        cache = AutomatonCache(capacity=1)
        entry, hit = cache.get_or_build(["he", "she", "hers"])
        assert not hit
        dfa = entry.dfa
        dfa.dense_fused_tables(tile_state_dtype(dfa))
        self._measure(dfa)
        ref = weakref.ref(dfa)
        del entry, dfa
        cache.get_or_build(["completely", "different"])  # evicts the first
        gc.collect()
        assert ref() is None, (
            "evicted automaton still reachable — a memoized gather table "
            "or a finished launch is holding a DFA reference"
        )

    def test_hot_swap_epochs_stay_bounded(self):
        """Many rule-set epochs: resident automata stay bounded."""
        cache = AutomatonCache(capacity=2)
        refs = []
        for epoch in range(8):
            entry, _ = cache.get_or_build([f"pat{epoch}", f"word{epoch}x"])
            self._measure(entry.dfa)
            refs.append(weakref.ref(entry.dfa))
            del entry
        gc.collect()
        assert len(cache) == 2
        alive = sum(r() is not None for r in refs)
        assert alive <= 2, f"{alive} automata alive with capacity 2"
