"""JIT flag plumbing + byte-identity of the compiled fast path.

Two CI legs exercise this file:

* **no-numba leg** — numba absent, ``REPRO_JIT=1`` set: the flag must
  demote gracefully to the pure-NumPy path with identical results
  (the classes below that don't require numba).
* **numba leg** — numba installed: the ``@needs_numba`` differentials
  pin the compiled gather/scalar-walk byte-identical to the NumPy path
  on the same inputs.

Either way the scan results must be the ones the tier-1 differential
suites already pin, so a wrong fallback can't hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DFA, PatternSet, jit
from repro.core.jit import (
    JIT_ENV_VAR,
    jit_enabled,
    jit_kernels,
    jit_requested,
    jit_status,
    numba_available,
)
from repro.core.multicore import scan_multicore
from repro.core.serial import match_serial_python, scan_serial
from repro.core.streaming import StreamMatcher
from repro.core.tiled import GatherKernel, scan_tiled

from tests.conftest import random_text

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed (no-numba CI leg)"
)


@pytest.fixture(autouse=True)
def _clean_jit_state(monkeypatch):
    """Each test starts unflagged with fresh probe caches."""
    monkeypatch.delenv(JIT_ENV_VAR, raising=False)
    jit._reset_for_tests()
    yield
    jit._reset_for_tests()


class TestFlagPlumbing:
    def test_off_by_default(self):
        assert not jit_requested()
        assert not jit_enabled()
        assert jit_kernels() is None
        assert "off" in jit_status()

    def test_only_exact_one_enables(self, monkeypatch):
        for value in ("0", "true", "yes", "2", ""):
            monkeypatch.setenv(JIT_ENV_VAR, value)
            assert not jit_requested(), value
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert jit_requested()

    def test_requested_without_numba_falls_back(self, monkeypatch):
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        monkeypatch.setattr(jit, "_numba_ok", False)
        assert jit_requested()
        assert not jit_enabled()
        assert jit_kernels() is None
        assert "fallback" in jit_status()

    def test_build_failure_falls_back(self, monkeypatch):
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        monkeypatch.setattr(jit, "_numba_ok", True)
        monkeypatch.setattr(jit, "_build_failed", True)
        assert not jit_enabled()
        assert jit_kernels() is None
        assert "compilation failed" in jit_status()

    def test_status_active_when_available(self, monkeypatch):
        if not numba_available():
            pytest.skip("numba not installed")
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert jit_enabled()
        assert jit_status() == "active (numba)"


class TestFallbackIdentity:
    """With the flag set but numba absent, results must not change.

    This is the no-numba CI leg's contract: setting REPRO_JIT=1 on a
    numba-less host is a no-op, not an error and not a divergence.
    """

    def test_scan_paths_identical_with_flag_and_no_numba(
        self, english_dfa, rng, monkeypatch
    ):
        text = random_text(rng, 20_000)
        baseline = scan_serial(english_dfa, text).as_pairs()

        monkeypatch.setenv(JIT_ENV_VAR, "1")
        monkeypatch.setattr(jit, "_numba_ok", False)
        assert scan_serial(english_dfa, text).as_pairs() == baseline
        assert (
            scan_multicore(english_dfa, text, workers=3).matches.as_pairs()
            == baseline
        )

    def test_stream_feed_identical_with_flag_and_no_numba(
        self, english_dfa, rng, monkeypatch
    ):
        text = random_text(rng, 3000)
        m0 = StreamMatcher(english_dfa)
        baseline = [m0.feed(text[i : i + 300]) for i in range(0, 3000, 300)]

        monkeypatch.setenv(JIT_ENV_VAR, "1")
        monkeypatch.setattr(jit, "_numba_ok", False)
        m1 = StreamMatcher(english_dfa)
        got = [m1.feed(text[i : i + 300]) for i in range(0, 3000, 300)]
        assert got == baseline
        assert m1.state == m0.state


@needs_numba
class TestCompiledIdentity:
    """numba leg: compiled kernels byte-identical to the NumPy path."""

    def test_gather_kernel_step_dense_and_compact(self, english_dfa, monkeypatch):
        rng = np.random.default_rng(42)
        n_threads = 97
        state0 = rng.integers(0, english_dfa.n_states, size=n_threads)
        symbols = rng.integers(0, 256, size=n_threads).astype(np.uint8)

        def one_step(backend):
            k = GatherKernel(english_dfa, english_dfa.gather_table(backend))
            k.alloc(n_threads)
            out = np.empty(n_threads, dtype=k.row_dtype)
            hit = np.empty(n_threads, dtype=np.bool_)
            k.step_fused(state0.astype(np.int64), symbols, out, hit)
            return out, hit

        backends = ("dense", "compact")
        ref = {b: one_step(b) for b in backends}
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert jit_enabled()
        for b in backends:
            got_out, got_hit = one_step(b)
            np.testing.assert_array_equal(got_out, ref[b][0])
            np.testing.assert_array_equal(got_hit, ref[b][1])

    def test_scan_tiled_byte_identical(self, english_dfa, rng, monkeypatch):
        from repro.core.alphabet import encode

        text = encode(random_text(rng, 50_000))
        baseline = scan_tiled(english_dfa, text).matches.as_pairs()
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert jit_enabled()
        assert scan_tiled(english_dfa, text).matches.as_pairs() == baseline

    def test_multicore_byte_identical(self, english_dfa, rng, monkeypatch):
        text = random_text(rng, 40_000)
        baseline = scan_multicore(english_dfa, text, workers=4).matches.as_pairs()
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        got = scan_multicore(english_dfa, text, workers=4).matches.as_pairs()
        assert got == baseline

    def test_feed_small_walk_identical(self, monkeypatch):
        dfa = DFA.build(PatternSet.from_strings(["he", "she", "his", "hers"]))
        rng = np.random.default_rng(9)
        pieces = [random_text(rng, n, alphabet=b"hers i") for n in (1, 7, 100, 1023)]

        def run():
            m = StreamMatcher(dfa)
            return [m.feed(p) for p in pieces], m.state

        baseline = run()
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert jit_enabled()
        assert run() == baseline

    def test_python_reference_still_agrees(self, monkeypatch):
        dfa = DFA.build(PatternSet.from_strings(["ab", "bab", "abba"]))
        data = b"abbababbab" * 50
        monkeypatch.setenv(JIT_ENV_VAR, "1")
        assert scan_serial(dfa, data).as_pairs() == match_serial_python(dfa, data)
