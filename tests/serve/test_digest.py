"""The dictionary digest: pinned bytes, one hash per set, pickle-safe.

Every cache, registry, epoch and SLO key is a ``pattern_set_digest``,
so its bytes must never move: the golden values below were computed
before the digest moved onto :class:`PatternSet` and must match
forever.  The set memoizes its digest per fold flag, so a served
dictionary is hashed once, not once per request.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest

from repro.core import PatternSet
from repro.core.delta import DeltaBuilder, PatternDelta
from repro.serve import ScanScheduler, pattern_set_digest

IDS = ["he", "she", "his", "hers"]
MIXED = ["Virus", "WORM", "troJan", "x"]
RAW = [b"\x00\xff", b"GET /", b"ab", b"c", b"\x80A"]

#: ``(dictionary, case_insensitive) -> hex digest``, pinned.
GOLDEN = {
    ("ids", False): "f7af37710eb27d1195839aa6775aa568"
    "8447ff458890b02a4294ca069d01df17",
    ("ids", True): "1cd9774e4daafaf19681ff52d207757a"
    "c2195f7cd64f2509be45c00ca3f5a8d2",
    ("mixed", False): "25f41e333834881edd9f9aa062245b76"
    "0fb6f63c7ed22fd81a0e95dfb9f853df",
    ("mixed", True): "4b8f524709638552f92182890f25056d"
    "9d0043764ce802cce6224bd0f9f93af7",
    ("raw", False): "945b0499dc4672aec6f6cbb2aa35e5fa"
    "42629997b8462474b7f5e857aaa53df9",
    ("raw", True): "1ac91a278df502b6314239141b273876"
    "78d1576994af7d576de4ff193605ceb1",
}
#: IDS minus "his" plus "Ushers", built by ``DeltaBuilder.apply``.
GOLDEN_DELTA = {
    False: "8c7ed287bf134f6180c17719b410c093"
    "60b47c17203ca214a75c0c1151405140",
    True: "17464ffd03af0f06bbc28f2883d0760b"
    "04f234b99e272afa8e6fe881d38f730e",
}
DICTIONARIES = {"ids": IDS, "mixed": MIXED, "raw": RAW}


@pytest.fixture
def sha256_passes(monkeypatch):
    """Count SHA-256 hashers created through ``hashlib.sha256``."""
    created = []
    real = hashlib.sha256

    def spy(*args, **kwargs):
        created.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", spy)
    return created


class TestGolden:
    @pytest.mark.parametrize("name,ci", sorted(GOLDEN))
    def test_pinned_bytes(self, name, ci):
        patterns = DICTIONARIES[name]
        want = GOLDEN[(name, ci)]
        assert pattern_set_digest(patterns, case_insensitive=ci) == want
        ps = PatternSet(patterns)
        assert pattern_set_digest(ps, case_insensitive=ci) == want
        assert ps.digest(ci) == want

    @pytest.mark.parametrize("ci", [False, True])
    def test_delta_built_set(self, ci):
        base = DeltaBuilder.full(PatternSet.from_strings(IDS))
        delta = PatternDelta.from_strings(added=["Ushers"], removed=["his"])
        built = DeltaBuilder.apply(base, delta)
        got = pattern_set_digest(built.patterns, case_insensitive=ci)
        assert got == GOLDEN_DELTA[ci]
        fresh = PatternSet.from_bytes(built.patterns.as_bytes_list())
        assert got == fresh.digest(ci)

    def test_fold_flag_first_then_plain(self):
        ps = PatternSet(MIXED)
        assert ps.digest(True) == GOLDEN[("mixed", True)]
        assert ps.digest(False) == GOLDEN[("mixed", False)]
        assert ps.digest(True) == GOLDEN[("mixed", True)]


class TestMemo:
    def test_repeat_submits_hash_once_per_fold_flag(self, sha256_passes):
        rules = PatternSet(MIXED)
        sched = ScanScheduler(backend="serial")
        for _ in range(5):
            sched.submit(rules, "a Virus and a worm")
        assert len(sha256_passes) == 1
        for _ in range(5):
            sched.submit(rules, "a Virus and a worm", case_insensitive=True)
        assert len(sha256_passes) == 2
        reports = sched.drain()
        # The cache lookups and builds of the drain reuse the memo too.
        assert len(sha256_passes) == 2
        assert [r.digest for r in reports] == [
            GOLDEN[("mixed", False)],
            GOLDEN[("mixed", True)],
        ]

    def test_plain_list_is_digested_by_content_each_call(self):
        """Only the immutable set carries a memo: a list edited in place
        between two calls gets the digest of its new content."""
        rules = list(IDS)
        assert pattern_set_digest(rules) == GOLDEN[("ids", False)]
        rules[2] = "hiss"
        assert pattern_set_digest(rules) == PatternSet(rules).digest()
        assert pattern_set_digest(rules) != GOLDEN[("ids", False)]


class TestCopies:
    @pytest.mark.parametrize("warm", [False, True])
    def test_pickle_round_trip_keeps_digest(self, warm):
        ps = PatternSet(MIXED)
        if warm:
            ps.digest()
        clone = pickle.loads(pickle.dumps(ps))
        assert clone == ps
        assert clone.digest() == GOLDEN[("mixed", False)]
        assert clone.digest(True) == GOLDEN[("mixed", True)]

    def test_copy_and_deepcopy_keep_digest(self):
        ps = PatternSet(IDS)
        ps.digest(True)
        for clone in (copy.copy(ps), copy.deepcopy(ps)):
            assert clone.digest() == GOLDEN[("ids", False)]
            assert clone.digest(True) == GOLDEN[("ids", True)]
