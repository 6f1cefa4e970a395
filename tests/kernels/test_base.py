"""Direct unit tests for kernels.base (scan segment, helpers)."""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import DFA, PatternSet, encode, plan_chunks
from repro.errors import MemoryModelError
from repro.gpu import gtx285
from repro.gpu.config import TextureCacheConfig
from repro.kernels.base import (
    CostParams,
    TextureClassifier,
    TextureLineHistogram,
    TextureTraffic,
    grouped_thread_addresses,
    hot_line_set,
    hot_line_set_from_counts,
    scan_segment,
)
from repro.obs import NULL_TRACER


def texture_traffic(dfa, text: bytes, chunk=32):
    """Texture traffic of the AC scan segment over *text*."""
    data = encode(text)
    plan = plan_chunks(data.size, chunk, dfa.patterns.max_length - 1)
    seg = scan_segment(
        dfa,
        data,
        plan,
        gtx285(),
        CostParams(),
        stt_backend="dense",
        tracer=NULL_TRACER,
    )
    return seg.tex


class TestHotLineSet:
    def test_selects_most_frequent(self):
        ids = np.array([[5, 5, 5, 7, 9, 9]])
        valid = np.ones_like(ids, dtype=bool)
        hot = hot_line_set(ids, valid, capacity_lines=2)
        assert hot.tolist() == [5, 9]

    def test_everything_fits(self):
        ids = np.array([[1, 2, 3]])
        valid = np.ones_like(ids, dtype=bool)
        assert hot_line_set(ids, valid, 10).tolist() == [1, 2, 3]

    def test_invalid_entries_ignored(self):
        ids = np.array([[1, 2, 3]])
        valid = np.array([[True, False, False]])
        assert hot_line_set(ids, valid, 10).tolist() == [1]

    def test_empty(self):
        ids = np.zeros((0, 4), dtype=np.int64)
        valid = np.zeros((0, 4), dtype=bool)
        assert hot_line_set(ids, valid, 4).size == 0


class TestTextureTraffic:
    def test_tiny_dictionary_all_hits(self, paper_dfa):
        t = texture_traffic(paper_dfa, b"she sells seashells " * 50)
        # A 10-state STT fits any cache level: no stalls, no DRAM.
        assert t.dram_line_requests == 0
        assert t.dependent_latency_cycles == 0.0
        assert t.lane_l1_hit_rate == 1.0
        assert t.dram_instr_rate == 0.0
        assert t.accesses > 0
        assert t.total_line_requests >= t.accesses  # >=1 line per instr

    def test_huge_dictionary_generates_dram_traffic(self):
        # Random 4-byte patterns spread fetches across many rows.
        rng = np.random.default_rng(3)
        pats = [bytes(rng.integers(1, 255, 4).tolist()) for _ in range(3000)]
        dfa = DFA.build(PatternSet.from_bytes(list(dict.fromkeys(pats))))
        text = bytes(rng.integers(1, 255, 60_000).tolist())
        t = texture_traffic(dfa, text)
        assert t.dram_line_requests > 0
        assert 0.0 < t.lane_l1_hit_rate < 1.0
        assert t.dependent_latency_cycles > 0
        assert t.dram_bytes == t.dram_line_requests * 32

    def test_miss_hierarchy_ordering(self):
        rng = np.random.default_rng(4)
        pats = [bytes(rng.integers(1, 255, 5).tolist()) for _ in range(1500)]
        dfa = DFA.build(PatternSet.from_bytes(list(dict.fromkeys(pats))))
        text = bytes(rng.integers(1, 255, 40_000).tolist())
        t = texture_traffic(dfa, text)
        # L2 is nested inside "all lines": DRAM <= L1-miss lines <= total.
        assert t.dram_line_requests <= t.l2_line_requests + t.dram_line_requests <= t.total_line_requests


LANES = 16
LINE_BYTES = 32


def line_of(state: int, symbol: int) -> int:
    """Texture line of ``STT[state][symbol]`` (1028 B rows, 4 B entries)."""
    return (state * 1028 + symbol * 4) // LINE_BYTES


def reference_traffic(tiles, hot_l1, hot_l2, config) -> TextureTraffic:
    """Classify every (step x half-warp) row with Python sets of lines."""
    l1, l2 = set(hot_l1), set(hot_l2)
    accesses = total_lines = l2_lines = dram_lines = dram_instr = 0
    valid_lanes = l2_lanes = dram_lanes = 0
    for tile in tiles:
        steps, n_threads = tile.valid.shape
        for j in range(steps):
            for g in range(0, n_threads, LANES):
                lines = [
                    line_of(int(tile.fetched[j, t]), int(tile.windows[j, t]))
                    for t in range(g, min(g + LANES, n_threads))
                    if tile.valid[j, t]
                ]
                if not lines:
                    continue
                serviced = [x for x in lines if x not in l1 and x in l2]
                dram = [x for x in lines if x not in l2]
                accesses += 1
                total_lines += len(set(lines))
                l2_lines += len(set(serviced))
                dram_lines += len(set(dram))
                dram_instr += bool(dram)
                valid_lanes += len(lines)
                l2_lanes += len(serviced)
                dram_lanes += len(dram)
    return TextureTraffic(
        accesses=accesses,
        dependent_latency_cycles=(
            (
                l2_lanes * config.texture_l2_latency_cycles
                + dram_lanes * config.texture_miss_latency_cycles
            )
            / LANES
            if valid_lanes
            else 0.0
        ),
        l2_line_requests=l2_lines,
        dram_line_requests=dram_lines,
        dram_instr_rate=dram_instr / accesses if accesses else 0.0,
        lane_l1_hit_rate=(
            1.0 - (l2_lanes + dram_lanes) / valid_lanes if valid_lanes else 1.0
        ),
        line_bytes=LINE_BYTES,
        total_line_requests=total_lines,
    )


@st.composite
def synthetic_tiles(draw):
    """(n_states, tiles) of fetched states, window bytes and validity.

    States come from a few hot rows so half-warps repeat lines; some
    steps are wholly invalid; thread counts include partial half-warps.
    """
    n_states = draw(st.integers(1, 40))
    n_threads = draw(st.sampled_from([1, 5, 15, 16, 17, 31, 33, 48]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hot_rows = rng.integers(0, n_states, draw(st.integers(1, 4)))
    tiles = []
    for steps in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        shape = (steps, n_threads)
        fetched = np.where(
            rng.random(shape) < 0.7,
            rng.choice(hot_rows, shape),
            rng.integers(0, n_states, shape),
        ).astype(np.uint16)
        windows = rng.choice(
            np.array([0, 1, 7, 8, 101, 255], dtype=np.uint8), shape
        )
        valid = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        valid[rng.random(steps) < 0.3] = False
        tiles.append(
            SimpleNamespace(fetched=fetched, windows=windows, valid=valid)
        )
    return n_states, tiles


class TestTextureSinksDifferential:
    @given(
        synthetic_tiles(),
        st.sampled_from(["histogram", "empty", "all", "nested", "not_nested"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.8, 0.02, 0.004]),
    )
    def test_matches_set_reference(self, case, hot_kind, seed, efficiency):
        n_states, tiles = case
        config = gtx285()
        params = CostParams(tex_capacity_efficiency=efficiency)
        hist = TextureLineHistogram(n_states, LINE_BYTES)
        texture = TextureClassifier(n_states, LINE_BYTES)
        for tile in tiles:
            hist.on_tile(tile)
            texture.on_tile(tile)
        seen = Counter(
            line_of(int(s), int(b))
            for tile in tiles
            for s, b in zip(tile.fetched[tile.valid], tile.windows[tile.valid])
        )
        uniq, counts = hist.nonzero()
        assert dict(zip(uniq.tolist(), counts.tolist())) == dict(seen)

        # The kept rows rank lines exactly as the dense histogram does.
        ranked_uniq, ranked_counts = texture.ranking()
        assert ranked_uniq.dtype == ranked_counts.dtype == np.int64
        assert np.array_equal(ranked_uniq, uniq)
        assert np.array_equal(ranked_counts, counts)
        hot_sets = texture.hot_sets(config, params)
        capacities = (
            int(config.texture_cache.n_lines * efficiency),
            int(config.texture_l2_bytes // LINE_BYTES * efficiency),
        )
        for hot, capacity in zip(hot_sets, capacities):
            want = hot_line_set_from_counts(uniq, counts, capacity)
            assert hot.dtype == want.dtype and np.array_equal(hot, want)

        n_lines = hist.hist.size
        rng = np.random.default_rng(seed)
        if hot_kind == "histogram":
            hot_l1, hot_l2 = hot_sets
        elif hot_kind == "empty":
            hot_l1 = hot_l2 = np.empty(0, dtype=np.int64)
        elif hot_kind == "all":
            hot_l1 = hot_l2 = np.arange(n_lines)
        else:
            hot_l2 = np.flatnonzero(rng.random(n_lines) < 0.5)
            pool = hot_l2 if hot_kind == "nested" else np.arange(n_lines)
            hot_l1 = pool[rng.random(pool.size) < 0.5]
        want = reference_traffic(tiles, hot_l1.tolist(), hot_l2.tolist(), config)
        assert texture.classify(hot_l1, hot_l2, config) == want
        if hot_kind == "histogram":
            assert texture.finish(config, params) == want


class TestClassifierInputs:
    @given(synthetic_tiles(), st.sampled_from([0.8, 0.004]))
    def test_live_lanes_classify_as_their_tile(self, case, efficiency):
        """Sparse lanes fed by thread id give the traffic of the tile
        in which only those lanes are valid."""
        n_states, tiles = case
        config = gtx285()
        params = CostParams(tex_capacity_efficiency=efficiency)
        by_tile = TextureClassifier(n_states, LINE_BYTES)
        by_lane = TextureClassifier(n_states, LINE_BYTES)
        for tile in tiles:
            by_tile.on_tile(tile)
            for j in range(tile.valid.shape[0]):
                threads = np.flatnonzero(tile.valid[j])
                by_lane.on_lanes(
                    tile.fetched[j, threads], tile.windows[j, threads], threads
                )
        assert by_lane.finish(config, params) == by_tile.finish(config, params)

    def test_merged_blocks_classify_alike(self, monkeypatch):
        import repro.kernels.base as base

        rng = np.random.default_rng(5)
        shape = (3, 37)
        tiles = [
            SimpleNamespace(
                fetched=rng.integers(0, 300, shape).astype(np.uint16),
                windows=rng.integers(0, 256, shape).astype(np.uint8),
                valid=rng.random(shape) < 0.7,
            )
            for _ in range(20)
        ]
        traffic = []
        for merge_bytes in (base._MERGE_BYTES, 100):
            monkeypatch.setattr(base, "_MERGE_BYTES", merge_bytes)
            texture = TextureClassifier(300, LINE_BYTES)
            for tile in tiles:
                texture.on_tile(tile)
            traffic.append(
                (len(texture.blocks), texture.finish(gtx285(), CostParams()))
            )
        (kept, whole), (merged, parts) = traffic
        assert merged < kept
        assert parts == whole

    def test_dram_bytes_use_the_classifier_line_size(self):
        """A 64 B-line device prices each DRAM line request at 64 B."""
        config = dataclasses.replace(
            gtx285(), texture_cache=TextureCacheConfig(line_bytes=64)
        )
        rng = np.random.default_rng(6)
        shape = (4, 48)
        texture = TextureClassifier(2000, 64)
        texture.on_tile(
            SimpleNamespace(
                fetched=rng.integers(0, 2000, shape).astype(np.uint16),
                windows=rng.integers(0, 256, shape).astype(np.uint8),
                valid=np.ones(shape, dtype=bool),
            )
        )
        empty = np.empty(0, dtype=np.int64)
        traffic = texture.classify(empty, empty, config)
        assert traffic.dram_line_requests > 0
        assert traffic.dram_bytes == traffic.dram_line_requests * 64


class TestHelpers:
    def test_grouped_thread_addresses_shape(self):
        addr = np.arange(3 * 20).reshape(3, 20)
        valid = np.ones((3, 20), dtype=bool)
        rows, act = grouped_thread_addresses(addr, valid)
        # 20 threads pad to 32 -> 2 groups x 3 steps = 6 rows.
        assert rows.shape == (6, 16)
        assert act.shape == (6, 16)
        assert act[1, 4:].sum() == 0  # padded lanes inactive

    def test_grouped_mismatch_rejected(self):
        with pytest.raises(MemoryModelError):
            grouped_thread_addresses(
                np.zeros((2, 4)), np.ones((3, 4), dtype=bool)
            )

    def test_cost_params_frozen_defaults(self):
        p = CostParams()
        assert p.instr_per_iter_global > p.instr_per_iter_shared
        with pytest.raises(Exception):
            p.instr_per_iter_global = 99  # frozen
