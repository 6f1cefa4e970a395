"""Tests for the PFAC kernel (related-work baseline)."""

import numpy as np
import pytest

from repro.core import DFA, PatternSet, naive_find_all
from repro.errors import LaunchError
from repro.gpu import Device
from repro.kernels import run_pfac_kernel


def own_outputs(dfa, state):
    """The patterns a PFAC thread entering *state* reports."""
    depth = dfa.state_depths()[state]
    return [p for p in dfa.outputs_of(state).tolist()
            if dfa.pattern_lengths[p] == depth]


class TestPfacAutomaton:
    """The failureless trie PFAC walks, read off the DFA: an edge is a
    transition one depth deeper, and a state reports its own pattern."""

    def test_table_has_dead_defaults(self, paper_dfa):
        depths = paper_dfa.state_depths()
        root_edges = [
            b for b in range(256) if depths[paper_dfa.delta(0, b)] == 1
        ]
        # Root has edges only on 'h' and 's'; every other byte kills
        # the thread.
        assert root_edges == [ord("h"), ord("s")]

    def test_outputs_are_exact_terminals_only(self, paper_dfa):
        # "she"'s terminal state emits only she (id 1), not he: in PFAC
        # the "he" occurrence belongs to the thread starting one later.
        s = 0
        for ch in b"she":
            s = paper_dfa.delta(s, ch)
        assert paper_dfa.outputs_of(s).tolist() == [1, 0]
        assert own_outputs(paper_dfa, s) == [1]

    def test_max_depth(self, paper_dfa):
        assert int(paper_dfa.state_depths().max()) == 4


class TestCorrectness:
    def test_paper_example(self, paper_dfa):
        r = run_pfac_kernel(paper_dfa, b"ushers", Device())
        assert r.matches.as_pairs() == [(3, 0), (3, 1), (5, 3)]

    def test_equals_oracle_on_dense_text(self, english_dfa, english_patterns):
        text = b"what would they say about all that there is " * 200
        r = run_pfac_kernel(english_dfa, text, Device())
        assert r.matches.as_set() == set(naive_find_all(english_patterns, text))

    def test_equals_ac_kernels(self, english_dfa):
        from repro.kernels import run_shared_kernel

        text = b"make them say that one thing with their own words " * 100
        p = run_pfac_kernel(english_dfa, text, Device())
        s = run_shared_kernel(english_dfa, text, Device())
        assert p.matches == s.matches

    def test_overlapping_matches(self):
        dfa = DFA.build(PatternSet.from_strings(["aa", "aaa"]))
        r = run_pfac_kernel(dfa, b"aaaa", Device())
        assert r.matches.as_set() == {(1, 0), (2, 0), (3, 0), (2, 1), (3, 1)}

    def test_batching_is_transparent(self, paper_dfa, monkeypatch):
        import repro.kernels.pfac as pfac_mod

        text = b"hers ushers his " * 50
        full = run_pfac_kernel(paper_dfa, text, Device())
        monkeypatch.setattr(pfac_mod, "BATCH_THREADS", 64)
        batched = run_pfac_kernel(paper_dfa, text, Device())
        assert batched.matches == full.matches

    def test_empty_rejected(self, paper_dfa):
        with pytest.raises(LaunchError):
            run_pfac_kernel(paper_dfa, b"", Device())


class TestAccounting:
    def test_scanned_exceeds_owned(self, english_dfa):
        # Every byte spawns a thread that reads >= 1 byte; survivors
        # read more, so scanned >= owned.
        text = b"the quick brown fox " * 500
        r = run_pfac_kernel(english_dfa, text, Device())
        assert r.counters.bytes_scanned >= r.counters.bytes_owned

    def test_input_loads_coalesced(self, english_dfa):
        text = b"the quick brown fox " * 500
        r = run_pfac_kernel(english_dfa, text, Device())
        # 2 transactions per warp-iteration (contiguous lanes).
        assert r.counters.global_transactions == 2 * r.counters.warp_iterations

    def test_counters_validate(self, paper_dfa):
        r = run_pfac_kernel(paper_dfa, b"zzzz" * 100, Device())
        r.counters.validate()

    def test_no_match_text_dies_fast(self, paper_dfa):
        # On text with no root edges the threads die at depth 1:
        # scanned == owned exactly.
        r = run_pfac_kernel(paper_dfa, b"z" * 4096, Device())
        assert r.counters.bytes_scanned == 4096
