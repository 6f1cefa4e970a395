"""Property-based tests (hypothesis) for the AC core invariants.

These are the repository's root-of-trust: random dictionaries × random
texts, with the brute-force scanner as independent oracle.  Every other
equivalence in the test suite (kernels vs serial) chains back to these.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    DFA,
    AhoCorasickAutomaton,
    PatternSet,
    encode,
    match_serial,
    naive_find_all,
)
from repro.core.serial import match_serial_python
from repro.core.tiled import scan_tiled

# Small alphabets maximize match density and boundary collisions.
ALPHA = st.sampled_from(["ab", "abc", "he rs"])


@st.composite
def dict_and_text(draw):
    alpha = draw(ALPHA)
    patterns = draw(
        st.lists(
            st.text(alphabet=alpha, min_size=1, max_size=6),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    text = draw(st.text(alphabet=alpha, min_size=0, max_size=300))
    return PatternSet.from_strings(patterns), text


@settings(max_examples=120, deadline=None)
@given(dict_and_text())
def test_automaton_matches_equal_bruteforce(case):
    patterns, text = case
    ac = AhoCorasickAutomaton.build(patterns)
    assert ac.match(text) == naive_find_all(patterns, text)


@settings(max_examples=120, deadline=None)
@given(dict_and_text())
def test_dfa_serial_matches_equal_bruteforce(case):
    patterns, text = case
    dfa = DFA.build(patterns)
    assert match_serial_python(dfa, text) == naive_find_all(patterns, text)


@settings(max_examples=80, deadline=None)
@given(dict_and_text(), st.integers(min_value=1, max_value=64))
def test_chunked_lockstep_equals_serial_for_any_chunk(case, chunk_len):
    patterns, text = case
    dfa = DFA.build(patterns)
    expected = set(naive_find_all(patterns, text))
    got = scan_tiled(dfa, encode(text), chunk_len=chunk_len).matches.as_set()
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(dict_and_text(), st.integers(min_value=0, max_value=8))
def test_extra_overlap_never_changes_matches(case, extra):
    patterns, text = case
    dfa = DFA.build(patterns)
    tight = patterns.max_length - 1
    a = scan_tiled(dfa, encode(text), chunk_len=5, overlap=tight).matches
    b = scan_tiled(dfa, encode(text), chunk_len=5, overlap=tight + extra).matches
    assert a == b


@settings(max_examples=60, deadline=None)
@given(dict_and_text())
def test_failure_links_strictly_decrease_depth(case):
    patterns, _ = case
    ac = AhoCorasickAutomaton.build(patterns)
    for s in range(1, ac.n_states):
        assert ac.trie.depth[ac.fail[s]] < ac.trie.depth[s]


@settings(max_examples=60, deadline=None)
@given(dict_and_text())
def test_dfa_transition_closure(case):
    """δ never leaves the state set and match flags mirror outputs."""
    patterns, _ = case
    ac = AhoCorasickAutomaton.build(patterns)
    dfa = DFA.from_automaton(ac)
    table = dfa.stt.next_states
    assert table.min() >= 0 and table.max() < dfa.n_states
    for s in range(dfa.n_states):
        assert bool(dfa.stt.match_flags[s]) == bool(ac.outputs[s])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.binary(min_size=1, max_size=5), min_size=1, max_size=8, unique=True
    ),
    st.binary(min_size=0, max_size=200),
)
def test_arbitrary_binary_dictionaries(patterns_raw, text):
    """Full byte alphabet including NUL bytes."""
    patterns = PatternSet.from_bytes(patterns_raw)
    dfa = DFA.build(patterns)
    assert match_serial(dfa, text).as_set() == set(
        naive_find_all(patterns, text)
    )
