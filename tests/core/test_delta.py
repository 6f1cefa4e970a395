"""Pattern deltas and the rule-version builds they feed.

Every version is one ``DFA.build`` of the new dictionary, so a build
after a delta must be byte-identical to a from-scratch build of the
same dictionary, and match like the trie reference on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DFA,
    AhoCorasickAutomaton,
    DeltaBuilder,
    PatternDelta,
    PatternSet,
)
from repro.core.integrity import stt_row_checksums, verify_row_checksums
from repro.errors import DeltaError, IntegrityError, SerializationError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


BASE = ["he", "she", "his", "hers"]


def _scan(dfa: DFA, text: bytes):
    """All (end, pid) matches by direct STT walk — oracle-comparable."""
    out = []
    state = 0
    table = dfa.stt.table
    for pos, byte in enumerate(text):
        state = int(table[state, byte])
        for pid in dfa.outputs_of(state):
            out.append((pos, int(pid)))
    out.sort()
    return out


def _texts():
    return [
        b"ushers say she is his hero",
        b"hishershehe",
        b"xxxxxxx",
        b"hehehehehehe",
        b"",
    ]


def _same_dfa(a: DFA, b: DFA) -> bool:
    """Byte-identical STT and output CSR."""
    return (
        np.array_equal(a.stt.table, b.stt.table)
        and np.array_equal(a.out_offsets, b.out_offsets)
        and np.array_equal(a.out_ids, b.out_ids)
    )


def _check_delta(base_patterns, added=(), removed=()):
    """Apply a delta and cross-check against a from-scratch build."""
    base = DeltaBuilder.full(PatternSet.from_strings(base_patterns))
    delta = PatternDelta.from_strings(added=added, removed=removed)
    version = DeltaBuilder.apply(base, delta)
    new_patterns = delta.apply_to(base.patterns)
    scratch = DFA.build(new_patterns)
    assert version.patterns == new_patterns
    assert _same_dfa(version.dfa, scratch)
    assert np.array_equal(version.row_checksums, stt_row_checksums(scratch.stt))
    for text in _texts():
        assert _scan(version.dfa, text) == _scan(scratch, text), text
    # Oracle cross-check: the NFA-style matcher on the new dictionary.
    ac = AhoCorasickAutomaton.build(new_patterns)
    for text in _texts():
        assert _scan(version.dfa, text) == ac.match(text)
    return version, scratch


class TestPatternDelta:
    def test_apply_to_order_is_kept_then_added(self):
        ps = PatternSet.from_strings(["a", "b", "c"])
        delta = PatternDelta.from_strings(added=["d"], removed=["b"])
        new = delta.apply_to(ps)
        assert new.as_bytes_list() == [b"a", b"c", b"d"]

    def test_validation_rejects_bad_deltas(self):
        ps = PatternSet.from_strings(["a", "b"])
        with pytest.raises(DeltaError):
            PatternDelta()  # empty
        with pytest.raises(DeltaError):
            PatternDelta.from_strings(added=["a"], removed=["a"])
        with pytest.raises(DeltaError):
            PatternDelta.from_strings(added=["x", "x"])
        with pytest.raises(DeltaError):
            PatternDelta.from_strings(added=[""])
        with pytest.raises(DeltaError):
            PatternDelta.from_strings(removed=["zz"]).apply_to(ps)
        with pytest.raises(DeltaError):
            PatternDelta.from_strings(added=["a"]).apply_to(ps)

    def test_roundtrip_serialization(self):
        delta = PatternDelta.from_strings(added=["abc", "x"], removed=["he"])
        blob = delta.to_bytes()
        back = PatternDelta.from_bytes(blob)
        assert back == delta

    def test_corrupt_blob_raises_integrity_error(self):
        blob = bytearray(PatternDelta.from_strings(added=["abc"]).to_bytes())
        blob[12] ^= 0x40
        with pytest.raises(IntegrityError):
            PatternDelta.from_bytes(bytes(blob))

    def test_truncated_and_foreign_blobs(self):
        blob = PatternDelta.from_strings(added=["abc"]).to_bytes()
        with pytest.raises(SerializationError):
            PatternDelta.from_bytes(blob[:10])
        with pytest.raises(SerializationError):
            PatternDelta.from_bytes(b"NOTDELTA" + blob[8:])

    def test_churn(self):
        d = PatternDelta.from_strings(added=["a", "b"], removed=["c"])
        assert d.churn == 3
        assert "+2 -1" in d.describe()

    def test_apply_to_shares_surviving_arrays(self):
        ps = PatternSet.from_strings(BASE)
        new = PatternDelta.from_strings(added=["usher"], removed=["she"]).apply_to(ps)
        assert new[0] is ps[0] and new[1] is ps[2] and new[2] is ps[3]
        assert new.as_bytes_list() == [b"he", b"his", b"hers", b"usher"]
        assert not any(arr.flags.writeable for arr in new)

    def test_apply_to_equals_reencoded_set(self):
        ps = PatternSet.from_strings(BASE)
        delta = PatternDelta.from_strings(added=["hi", "ushers"], removed=["his"])
        new = delta.apply_to(ps)
        old = PatternSet.from_bytes([b"he", b"she", b"hers", b"hi", b"ushers"])
        assert new == old
        assert new.digest() == old.digest()
        assert new.digest(True) == old.digest(True)
        assert new.stats() == old.stats()

    def test_apply_to_error_messages(self):
        ps = PatternSet.from_strings(["a", "b"])
        with pytest.raises(
            DeltaError,
            match=r"^delta removes 1 pattern\(s\) not in the base set "
            r"\(first: b'zz'\)$",
        ):
            PatternDelta.from_strings(removed=["zz"]).apply_to(ps)
        with pytest.raises(
            DeltaError,
            match=r"^delta adds 2 pattern\(s\) already in the base set "
            r"\(first: b'a'\)$",
        ):
            PatternDelta.from_strings(added=["a", "b"]).apply_to(ps)
        with pytest.raises(DeltaError, match="leave the pattern set empty"):
            PatternDelta.from_strings(removed=["a", "b"]).apply_to(ps)


class TestDeltaBuilder:
    def test_full_is_one_dfa_build(self):
        patterns = PatternSet.from_strings(BASE)
        version = DeltaBuilder.full(patterns)
        assert version.patterns is patterns
        assert _same_dfa(version.dfa, DFA.build(patterns))
        reference = DFA.from_automaton(AhoCorasickAutomaton.build(patterns))
        assert _same_dfa(version.dfa, reference)
        assert np.array_equal(
            version.row_checksums, stt_row_checksums(version.dfa.stt)
        )

    def test_add_only_is_byte_identical_to_scratch(self):
        version, scratch = _check_delta(BASE, added=["ushers", "hi"])
        assert version.dfa.n_states == scratch.n_states
        assert np.array_equal(version.dfa.stt.table, scratch.stt.table)
        assert np.array_equal(
            version.row_checksums, stt_row_checksums(scratch.stt)
        )

    def test_remove_leaves_no_unreachable_rows(self):
        # Removing "his" prunes its "i" and "s" states from the table.
        base = DeltaBuilder.full(PatternSet.from_strings(BASE))
        version, scratch = _check_delta(BASE, removed=["his"])
        assert version.dfa.n_states == scratch.n_states == base.dfa.n_states - 2
        assert (version.dfa.state_depths() >= 0).all()

    def test_remove_prefix_pattern_keeps_states(self):
        # "he" ends at an interior state of "hers": no states die.
        base = DeltaBuilder.full(PatternSet.from_strings(BASE))
        version, _ = _check_delta(BASE, removed=["he"])
        assert version.dfa.n_states == base.dfa.n_states

    def test_add_and_remove_combined(self):
        _check_delta(BASE, added=["user", "shell"], removed=["she", "his"])

    def test_chained_deltas_stay_equivalent(self):
        version = DeltaBuilder.full(PatternSet.from_strings(BASE))
        edits = [
            (["ushers"], []),
            ([], ["he"]),
            (["hero", "herald"], ["his"]),
            (["x"], ["ushers"]),
        ]
        for added, removed in edits:
            delta = PatternDelta.from_strings(added=added, removed=removed)
            version = DeltaBuilder.apply(version, delta)
        scratch = DFA.build(version.patterns)
        assert _same_dfa(version.dfa, scratch)
        for text in _texts():
            assert _scan(version.dfa, text) == _scan(scratch, text)

    def test_row_checksums_match_full_recompute(self):
        version, _ = _check_delta(BASE, added=["ushery"], removed=["hers"])
        assert verify_row_checksums(
            version.dfa.stt.table, version.row_checksums
        ) == []
        assert np.array_equal(
            version.row_checksums, stt_row_checksums(version.dfa.stt)
        )

    def test_base_version_is_not_mutated(self):
        base = DeltaBuilder.full(PatternSet.from_strings(BASE))
        table_before = base.dfa.stt.table.copy()
        delta = PatternDelta.from_strings(added=["shells"], removed=["his"])
        DeltaBuilder.apply(base, delta)
        assert np.array_equal(base.dfa.stt.table, table_before)
        assert base.patterns.as_bytes_list() == [b"he", b"she", b"his", b"hers"]
        assert verify_row_checksums(base.dfa.stt.table, base.row_checksums) == []

    def test_pattern_ids_shift_on_removal(self):
        version, scratch = _check_delta(BASE, removed=["he"])
        # "she" was pid 1, now pid 0 — matches must report the new ids.
        got = _scan(version.dfa, b"she")
        assert got == _scan(scratch, b"she")
        assert got == [(2, 0)]  # she = pid 0 after "he" is removed

    def test_invalid_delta_raises(self):
        base = DeltaBuilder.full(PatternSet.from_strings(BASE))
        with pytest.raises(DeltaError):
            DeltaBuilder.apply(base, PatternDelta.from_strings(removed=["xyz"]))
        with pytest.raises(DeltaError):
            DeltaBuilder.apply(base, PatternDelta.from_strings(removed=BASE))


if HAVE_HYPOTHESIS:

    short_pat = st.text(alphabet="abc", min_size=1, max_size=5)

    @given(
        base=st.lists(short_pat, min_size=1, max_size=12, unique=True),
        extra=st.lists(short_pat, min_size=0, max_size=6, unique=True),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_fuzz_delta_equals_scratch(base, extra, data):
        """Random add/remove deltas build exactly what scratch builds."""
        added = [p for p in extra if p not in base]
        removable = data.draw(
            st.lists(st.sampled_from(base), max_size=len(base) - 1, unique=True)
            if len(base) > 1
            else st.just([])
        )
        if not added and not removable:
            return
        built = DeltaBuilder.full(PatternSet.from_strings(base))
        delta = PatternDelta.from_strings(added=added, removed=removable)
        version = DeltaBuilder.apply(built, delta)
        scratch = DFA.build(delta.apply_to(built.patterns))
        assert _same_dfa(version.dfa, scratch)
        text = data.draw(st.text(alphabet="abc", max_size=60)).encode("latin-1")
        assert _scan(version.dfa, text) == _scan(scratch, text)
        ac = AhoCorasickAutomaton.build(version.patterns)
        assert _scan(version.dfa, text) == ac.match(text)
        assert verify_row_checksums(
            version.dfa.stt.table, version.row_checksums
        ) == []
