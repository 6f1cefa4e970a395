"""Unit tests for the DFA/STT construction (paper Figs. 2/3/5)."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import DFA, AhoCorasickAutomaton, PatternSet
from repro.core.alphabet import ALPHABET_SIZE, MATCH_COLUMN
from repro.core.trie import ROOT
from repro.workload.datasets import DatasetFactory
from repro.workload.snort import generate_pattern_set

#: SHA-256 of the 1k magazine DFA's STT, ``out_offsets`` and ``out_ids``
#: (little-endian int32, int64, int64), as built through the automaton.
#: Pins the state numbering itself, not just agreement of two builders.
GOLDEN_1K_SHA256 = (
    "cfdb9485d589e06ca42fd6ed2770c3d354c428597e219b6f544e4f453e967f42"
)

#: Small dictionaries with nested outputs and self-overlapping patterns.
SMALL_DICTIONARIES = [
    ["a"],
    ["aa", "ab", "ba"],
    ["abcde", "bcd", "cde", "e"],
    ["x" * 10, "x" * 5, "x"],
]


def state_of(dfa: DFA, word: str) -> int:
    s = ROOT
    for ch in word.encode():
        s = dfa.delta(s, ch)
    return s


class TestPaperDfa:
    def test_delta_never_fails(self, paper_dfa):
        # DFA property: δ(s, a) is always a valid state (no fail).
        table = paper_dfa.stt.next_states
        assert table.min() >= 0
        assert table.max() < paper_dfa.n_states

    def test_fig3_walkthrough_ushers(self, paper_dfa):
        # δ(0,u)=0, then s-h-e reaches the she-state (match),
        # then r-s reaches the hers-state (match).
        s = state_of(paper_dfa, "ushe")
        assert paper_dfa.is_match_state(s)
        assert set(paper_dfa.outputs_of(s).tolist()) == {0, 1}
        s2 = state_of(paper_dfa, "ushers")
        assert paper_dfa.is_match_state(s2)
        assert set(paper_dfa.outputs_of(s2).tolist()) == {3}

    def test_fail_transitions_precomputed(self, paper_dfa, paper_automaton):
        # The "thin line" fail transitions of Fig. 3: from the she-state,
        # 'r' goes straight to the her-state in one step.
        she = state_of(paper_dfa, "she")
        her = state_of(paper_dfa, "her")
        assert paper_dfa.delta(she, ord("r")) == her

    def test_exhaustive_equivalence_with_automaton(
        self, paper_dfa, paper_automaton
    ):
        assert paper_dfa.verify_against_automaton(paper_automaton)

    def test_match_column_flags(self, paper_dfa, paper_automaton):
        flags = paper_dfa.stt.match_flags
        for s in range(paper_dfa.n_states):
            assert bool(flags[s]) == bool(paper_automaton.outputs[s])

    def test_stt_shape(self, paper_dfa):
        assert paper_dfa.stt.table.shape == (10, 257)


class TestCsrOutputs:
    def test_outputs_of_matches_automaton(self, paper_dfa, paper_automaton):
        for s in range(paper_dfa.n_states):
            assert (
                sorted(paper_dfa.outputs_of(s).tolist())
                == sorted(paper_automaton.outputs[s])
            )

    def test_gather_matches_expands_multi_output_states(self, paper_dfa):
        she = state_of(paper_dfa, "she")
        ends, pids = paper_dfa.gather_matches(
            np.array([7, 9]), np.array([she, she])
        )
        assert ends.tolist() == [7, 7, 9, 9]
        assert sorted(pids[:2].tolist()) == [0, 1]

    def test_gather_matches_empty(self, paper_dfa):
        ends, pids = paper_dfa.gather_matches(
            np.array([3]), np.array([ROOT])
        )
        assert ends.size == 0 and pids.size == 0

    def test_gather_matches_no_input(self, paper_dfa):
        ends, pids = paper_dfa.gather_matches(np.array([]), np.array([]))
        assert ends.size == 0 and pids.size == 0


@pytest.fixture(scope="module")
def magazine_1k() -> PatternSet:
    return DatasetFactory(seed=2013).patterns_for(1000)


@pytest.fixture(scope="module")
def snort_2k() -> PatternSet:
    return generate_pattern_set(2000, seed=2013)


def assert_build_is_reference(ps: PatternSet) -> None:
    """DFA.build's arrays equal the automaton path's, byte for byte."""
    got = DFA.build(ps)
    ref = DFA.from_automaton(AhoCorasickAutomaton.build(ps))
    assert got.stt.table.dtype == ref.stt.table.dtype
    assert got.stt.table.tobytes() == ref.stt.table.tobytes()
    np.testing.assert_array_equal(got.out_offsets, ref.out_offsets)
    np.testing.assert_array_equal(got.out_ids, ref.out_ids)


def _byte_patterns(alphabet):
    return st.lists(
        st.binary(min_size=1, max_size=12).map(
            lambda raw: bytes(alphabet[b % len(alphabet)] for b in raw)
        ),
        min_size=1,
        max_size=60,
    ).map(PatternSet.from_bytes)


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("patterns", SMALL_DICTIONARIES)
    def test_dfa_equals_automaton(self, patterns):
        ac = AhoCorasickAutomaton.build(PatternSet.from_strings(patterns))
        dfa = DFA.from_automaton(ac)
        assert dfa.verify_against_automaton(ac)

    def test_single_byte_alphabet_all_values(self):
        ps = PatternSet.from_bytes([bytes([b]) for b in (0, 127, 255)])
        dfa = DFA.build(ps)
        for b, pid in zip((0, 127, 255), range(3)):
            s = dfa.delta(ROOT, b)
            assert dfa.outputs_of(s).tolist() == [pid]

    def test_build_convenience(self):
        from repro.core import build_dfa

        dfa = build_dfa(["he", "she"])
        assert dfa.n_states > 1

    def test_root_self_loops_for_undefined_symbols(self, paper_dfa):
        row = paper_dfa.stt.table[ROOT, :ALPHABET_SIZE]
        undefined = [b for b in range(256) if b not in (ord("h"), ord("s"))]
        assert np.all(row[undefined] == ROOT)

    def test_match_flag_column_is_binary(self, paper_dfa):
        col = paper_dfa.stt.table[:, MATCH_COLUMN]
        assert set(np.unique(col)).issubset({0, 1})

    # -- DFA.build (depth by depth) against the automaton path ----------

    @settings(max_examples=100, deadline=None)
    @given(_byte_patterns(b"ab\0"))
    @example(PatternSet.from_strings(SMALL_DICTIONARIES[0]))
    @example(PatternSet.from_strings(SMALL_DICTIONARIES[1]))
    @example(PatternSet.from_strings(SMALL_DICTIONARIES[2]))
    @example(PatternSet.from_strings(SMALL_DICTIONARIES[3]))
    @example(PatternSet.from_bytes([bytes([b]) for b in range(256)]))
    @example(PatternSet.from_bytes([b"ab", b"b\0a", b"ab" * 150, b"bab", b"a"]))
    def test_build_equals_automaton_path_deep_chains(self, ps):
        # Over {a, b, NUL}: long failure chains, nested outputs, NUL.
        assert_build_is_reference(ps)

    @settings(max_examples=100, deadline=None)
    @given(_byte_patterns(bytes(range(256))))
    def test_build_equals_automaton_path_any_byte(self, ps):
        assert_build_is_reference(ps)

    @pytest.mark.parametrize(
        "fixture", ["paper_patterns", "magazine_1k", "snort_2k"]
    )
    def test_build_equals_automaton_path_fixed(self, fixture, request):
        assert_build_is_reference(request.getfixturevalue(fixture))

    def test_build_golden_digest_magazine_1k(self, magazine_1k):
        dfa = DFA.build(magazine_1k)
        h = hashlib.sha256()
        h.update(dfa.stt.table.astype("<i4").tobytes())
        h.update(dfa.out_offsets.astype("<i8").tobytes())
        h.update(dfa.out_ids.astype("<i8").tobytes())
        assert h.hexdigest() == GOLDEN_1K_SHA256


class TestStateDepths:
    @pytest.mark.parametrize(
        "fixture", ["paper_patterns", "magazine_1k", "snort_2k"]
    )
    def test_depths_are_trie_depths_however_the_dfa_is_made(
        self, fixture, request
    ):
        import io

        from repro.core.serialization import load_dfa, save_dfa

        ps = request.getfixturevalue(fixture)
        ac = AhoCorasickAutomaton.build(ps)
        want = np.zeros(ac.n_states, dtype=np.int64)
        for state in [ROOT, *ac.trie.bfs_order()]:
            for child in ac.trie.children[state].values():
                want[child] = want[state] + 1
        built = DFA.build(ps)
        buf = io.BytesIO()
        save_dfa(built, buf)
        buf.seek(0)
        for dfa in (built, DFA.from_automaton(ac), load_dfa(buf)):
            np.testing.assert_array_equal(dfa.state_depths(), want)
            assert dfa.state_depths() is dfa.state_depths()
