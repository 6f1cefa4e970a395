"""The kernels' single walks of the DFA, and their pinned counters.

``golden_counters.json`` holds the event counters, raw hits, match
counts and modeled seconds of the shared and global kernels as the
two-walk texture accounting (a histogram pass, then a replayed
classifier pass) computed them; the one-walk accounting must
reproduce every value.  Its ``*/pfac`` entries pin PFAC's counters,
match count and modeled seconds as its single walk over the AC
gather table first computed them.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import DFA, PatternSet, plan_chunks, required_overlap
from repro.core.tiled import GatherKernel
from repro.gpu import Device, gtx285
from repro.kernels import (
    run_global_kernel,
    run_pfac_kernel,
    run_shared_kernel,
)
from repro.kernels.global_only import measure_global
from repro.kernels.shared_mem import measure_shared
from repro.workload import DatasetFactory

GOLDEN = json.loads((Path(__file__).parent / "golden_counters.json").read_text())

TEXT = b"she sells sea shells by the seashore; ushers saw hers " * 120

KERNELS = {
    "shared": (run_shared_kernel, measure_shared),
    "global": (run_global_kernel, measure_global),
}


class TestOneWalk:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("tile_len", [256, 16])
    def test_each_scan_steps_the_window_once(
        self, english_dfa, kernel, tile_len, monkeypatch
    ):
        """One tile at 256 steps, several below the window."""
        run, _ = KERNELS[kernel]
        chunk = 64 if kernel == "shared" else 100
        kwargs = {} if kernel == "shared" else {"chunk_len": chunk}
        overlap = required_overlap(english_dfa.patterns.max_length)
        window = plan_chunks(len(TEXT), chunk, overlap).window_len
        assert (window <= tile_len) == (tile_len == 256)
        steps = []
        real = GatherKernel.step_fused

        def counting(self, *args):
            steps.append(1)
            return real(self, *args)

        monkeypatch.setattr(GatherKernel, "step_fused", counting)
        for scans in (1, 2):
            run(english_dfa, TEXT, Device(), tile_len=tile_len, **kwargs)
            assert len(steps) == scans * window

    def test_pfac_steps_each_live_batch_depth_once(self, magazine, monkeypatch):
        """One gather step per (thread batch, depth) with a live lane."""
        import repro.kernels.pfac as pfac_mod

        dfa, data = magazine
        batch = 1 << 14
        monkeypatch.setattr(pfac_mod, "BATCH_THREADS", batch)
        text = data.tobytes()
        prefixes = {p[:k] for p in dfa.patterns.as_bytes_list()
                    for k in range(1, len(p) + 1)}
        want = 0
        for start in range(0, len(text), batch):
            for d in range(dfa.patterns.max_length):
                stop = min(start + batch, len(text) - d)
                if d == 0:
                    live = stop > start
                else:
                    live = any(
                        text[i : i + d] in prefixes for i in range(start, stop)
                    )
                want += live
        steps = []
        real = GatherKernel.step_fused

        def counting(self, *args):
            steps.append(1)
            return real(self, *args)

        monkeypatch.setattr(GatherKernel, "step_fused", counting)
        run_pfac_kernel(dfa, data, Device())
        assert len(steps) == want


@pytest.fixture(scope="module")
def magazine():
    factory = DatasetFactory(seed=2013)
    dfa = DFA.build(factory.patterns_for(1000))
    return dfa, factory.corpus.generate_array(64 * 1024, stream_seed=19)


@pytest.fixture(scope="module")
def nul_dictionary():
    """NUL-bearing patterns on an input whose last windows run past it,
    so the zero padding steps into match states."""
    patterns = [b"\x00", b"a\x00", b"\x00\x00b", b"ab", b"b\x00a"]
    dfa = DFA.build(PatternSet.from_bytes(patterns))
    rng = np.random.default_rng(2013)
    return dfa, bytes(rng.choice([0, 97, 98, 99], 1000).tolist())


class TestGoldenCounters:
    @pytest.mark.parametrize("case", ["magazine", "nul"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("tile_len", [256, 16])
    def test_counters_match_two_walk_values(
        self, request, case, kernel, tile_len
    ):
        dfa, data = request.getfixturevalue(
            "magazine" if case == "magazine" else "nul_dictionary"
        )
        run, measure = KERNELS[kernel]
        result = run(dfa, data, Device(), tile_len=tile_len)
        meas = measure(dfa, data, gtx285(), tile_len=tile_len)
        want = GOLDEN[f"{case}/{kernel}/{tile_len}"]
        assert dataclasses.asdict(result.counters) == want["counters"]
        assert meas.seg.raw_hits == want["raw_hits"]
        assert len(result.matches) == want["matches"]
        assert repr(result.seconds) == want["seconds"]

    @pytest.mark.parametrize("case", ["magazine", "nul"])
    def test_pfac_counters(self, request, case):
        dfa, data = request.getfixturevalue(
            "magazine" if case == "magazine" else "nul_dictionary"
        )
        result = run_pfac_kernel(dfa, data, Device())
        want = GOLDEN[f"{case}/pfac"]
        assert dataclasses.asdict(result.counters) == want["counters"]
        assert len(result.matches) == want["matches"]
        assert repr(result.seconds) == want["seconds"]
