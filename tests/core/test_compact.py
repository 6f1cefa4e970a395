"""Alphabet-compaction correctness: CompactSTT ≡ dense STT, always.

The compacted table is only admissible because of a structural theorem
(any byte used by no pattern drives every state to the root — see
repro/core/compact.py); these tests check the theorem's consequence
exhaustively on constructed dictionaries and property-test the scan
path end to end, including bytes 0x00/0xFF and dictionaries that use
almost none (or all) of the alphabet.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet, encode, match_serial
from repro.core.alphabet import ALPHABET_SIZE
from repro.core.compact import ByteClassMap, CompactSTT, compact_columns, used_bytes
from repro.core.tiled import scan_tiled
from repro.core.trie import ROOT
from repro.errors import PatternError


def build(patterns):
    return DFA.build(PatternSet(patterns))


class TestByteClassMap:
    def test_unused_bytes_map_to_class_zero(self):
        cmap = ByteClassMap.from_patterns(PatternSet([b"ab", b"ba"]))
        assert cmap.n_classes == 3  # other + {a, b}
        assert cmap.class_of[ord("a")] == 1
        assert cmap.class_of[ord("b")] == 2
        others = np.delete(cmap.class_of, [ord("a"), ord("b")])
        assert np.all(others == 0)

    def test_used_bytes_sorted_and_complete(self):
        ps = PatternSet([b"\xff\x00", b"zq"])
        assert used_bytes(ps).tolist() == [0x00, ord("q"), ord("z"), 0xFF]

    def test_full_alphabet_dictionary(self):
        ps = PatternSet([bytes([b]) for b in range(ALPHABET_SIZE)])
        cmap = ByteClassMap.from_patterns(ps)
        assert cmap.n_classes == ALPHABET_SIZE + 1
        # Class 0 ("other") exists but no byte maps to it.
        assert np.all(cmap.class_of >= 1)


class TestCompactSTT:
    @pytest.mark.parametrize(
        "patterns",
        [
            [b"he", b"she", b"his", b"hers"],
            [b"\x00", b"\x00\xff", b"\xff" * 3],
            [b"aaaa", b"aaab", b"abab"],
            [b"x"],
        ],
    )
    def test_verify_against_dense_exhaustive(self, patterns):
        dfa = build(patterns)
        cstt = CompactSTT.from_dfa(dfa)
        assert cstt.verify_against(dfa)

    def test_unused_column_is_all_root(self):
        dfa = build([b"he", b"she"])
        cstt = dfa.compact_stt()
        assert np.all(cstt.table[:, 0] == ROOT)

    def test_compact_is_smaller_for_sparse_dictionaries(self):
        dfa = build([b"he", b"she", b"his", b"hers"])
        cstt = dfa.compact_stt()
        assert cstt.compact_bytes() < cstt.dense_bytes()

    def test_cached_on_dfa(self):
        dfa = build([b"ab"])
        assert dfa.compact_stt() is dfa.compact_stt()

    def test_compact_columns_other_value(self):
        dfa = build([b"ab"])
        cmap = ByteClassMap.from_patterns(dfa.patterns)
        table = compact_columns(dfa.stt.next_states, cmap, -7)
        assert np.all(table[:, 0] == -7)

    def test_empty_pattern_set_rejected_like_dense(self):
        # Both paths refuse an empty dictionary at the same place.
        with pytest.raises(PatternError):
            PatternSet([])


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


@settings(max_examples=80, deadline=None)
@given(dict_and_text())
def test_compact_transitions_equal_dense_property(case):
    patterns, _ = case
    dfa = DFA.build(patterns)
    assert dfa.compact_stt().verify_against(dfa)


@settings(max_examples=60, deadline=None)
@given(dict_and_text(), st.integers(min_value=1, max_value=64))
def test_compact_scan_equals_dense_scan(case, chunk_len):
    patterns, text = case
    dfa = DFA.build(patterns)
    data = encode(text)
    dense, compact = (
        scan_tiled(dfa, data, chunk_len=chunk_len, stt_backend=b).matches
        for b in ("dense", "compact")
    )
    assert dense == compact
    assert dense == match_serial(dfa, text)
