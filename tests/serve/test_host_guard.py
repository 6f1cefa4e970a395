"""A corrupted host table never reaches a host read of the scheduler.

A resident batch gathers only through its device's copy, which the
launch block-checks, so it skips the host table's row-CRC pass.  Every
read of the host table — the per-request fallback, whose resilient
chain binds fresh devices from the DFA and scans it serially, a rebind
and a serial batch — must first fetch the DFA through its owner's
verified accessor, which evicts or rebuilds a corrupted table.

The corruption flips the match flag (column 256) of the state "she"
enters: every fused backend's bind reads ``stt.match_flags``, so a
skipped re-verify silently drops the "she" and "he" matches there.

A device copy that fails its launch check is released with the failed
batch, so the next batch rebinds from the verified host table instead
of failing the same check and falling back again.

A bind copies only bytes a CRC has just covered: the ``compact`` device
copy is fused straight from the verified dense STT, never from the
DFA's alphabet-compacted memo (``DFA.compact_stt``), which no CRC
covers.  The memo probe routes δ(state after "s", "h") to the root in
that memo, which would drop "she", "he" and "hers" from "ushers".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DFA, PatternSet
from repro.core.alphabet import MATCH_COLUMN
from repro.core.serial import match_serial_python
from repro.obs import Metrics
from repro.serve import EpochManager, ScanScheduler

RULES = PatternSet.from_strings(["he", "she", "his", "hers"])
TEXTS = ["ushers", "she sells", "his hers"]
#: Six matches: she, he and hers in "ushers", his, he and hers.
BIND_TEXTS = ["ushers and his hers"]
REBUILDS = "epoch_corrupt_rebuilds_total"


class Served:
    """One scheduler on one submission path, with its corruption probes."""

    def __init__(self, path: str, backend: str = "gpu"):
        self.path = path
        self.metrics = Metrics()
        if path == "anonymous":
            self.sched = ScanScheduler(backend=backend)
        else:
            epochs = EpochManager(metrics=self.metrics)
            epochs.register("ids", RULES)
            self.sched = ScanScheduler(backend=backend, epochs=epochs)

    def serve(self, texts=TEXTS):
        if self.path == "anonymous":
            return self.sched.scan_many(RULES, texts)
        return self.sched.scan_many_named("ids", texts)

    @property
    def matcher(self):
        (matcher,) = [
            *self.sched._matchers.values(),
            *(m for m, _ in self.sched._epoch_matchers.values()),
        ]
        return matcher

    def flip_host_flag(self) -> None:
        """Clear the match flag of the state "she" enters."""
        table = self.matcher.dfa.stt.table
        state = 0
        for byte in b"she":
            state = int(table[state, byte])
        table.setflags(write=True)
        try:
            table[state, MATCH_COLUMN] ^= 1
        finally:
            table.setflags(write=False)

    def corrupt_compact_memo(self) -> None:
        """Route δ(state after "s", "h") to the root in the DFA's
        compacted memo, the table no CRC covers."""
        if self.path == "anonymous":
            entry, _ = self.sched.cache.get_or_build(RULES)
            dfa = entry.dfa
        else:
            dfa = self.sched.epochs.active("ids").built.dfa
        compact = dfa.compact_stt()
        state = int(dfa.stt.table[0, ord("s")])
        table = compact.table
        table.setflags(write=True)
        try:
            table[state, compact.class_of[ord("h")]] = 0
        finally:
            table.setflags(write=False)

    def corrupt_device_block(self) -> None:
        """Flip one bit in the first block of the bound copy."""
        data = self.matcher.device.gather_arrays[0].data
        data.reshape(-1).view(np.uint8)[0] ^= 1

    def healed(self) -> int:
        """Host tables evicted or rebuilt after a failed row-CRC check."""
        if self.path == "anonymous":
            return self.sched.cache.corrupt_evictions
        return int(self.metrics.counter(REBUILDS).value())


def expected(texts=TEXTS):
    fresh = DFA.build(RULES)
    return [match_serial_python(fresh, t) for t in texts]


def assert_exact(results, texts=TEXTS) -> None:
    assert [r.as_pairs() for r in results] == expected(texts)


@pytest.mark.parametrize("path", ["anonymous", "named"])
def test_fallback_reverifies_host_table(path):
    served = Served(path)
    assert_exact(served.serve())
    served.flip_host_flag()
    served.corrupt_device_block()
    results = served.serve()
    assert served.sched.reports[-1].fallback_request_ids
    assert_exact(results)
    assert served.healed() == 1
    assert_exact(served.serve())  # later batches bind the rebuilt table
    assert served.healed() == 1


@pytest.mark.parametrize("path", ["anonymous", "named"])
def test_host_flip_under_intact_binding_is_not_read(path):
    served = Served(path)
    served.serve()
    served.flip_host_flag()
    results = served.serve()
    assert served.sched.reports[-1].bind_skipped
    assert not served.sched.reports[-1].fallback_request_ids
    assert served.healed() == 0
    assert_exact(results)


@pytest.mark.parametrize("path", ["anonymous", "named"])
@pytest.mark.parametrize("read", ["rebind", "serial"])
def test_host_read_reverifies_host_table(path, read):
    served = Served(path, backend="serial" if read == "serial" else "gpu")
    served.serve()
    served.flip_host_flag()
    if read == "rebind":
        served.matcher.device.unbind_texture()
    results = served.serve()
    assert_exact(results)
    assert served.healed() == 1


@pytest.mark.parametrize("path", ["anonymous", "named"])
def test_failed_binding_is_released(path):
    served = Served(path)
    served.serve()
    served.corrupt_device_block()
    reports = []
    for _ in range(3):
        assert_exact(served.serve())
        reports.append(served.sched.reports[-1])
    fallback, rebind, resident = reports
    assert fallback.fallback_request_ids
    assert not rebind.bind_skipped and not rebind.fallback_request_ids
    assert resident.bind_skipped and not resident.fallback_request_ids
    assert served.healed() == 0


@pytest.mark.parametrize("path", ["anonymous", "named"])
def test_first_bind_reads_only_the_verified_dense_stt(path):
    served = Served(path)
    served.corrupt_compact_memo()
    results = served.serve(BIND_TEXTS)
    assert not served.sched.reports[-1].fallback_request_ids
    assert len(results[0]) == 6
    assert_exact(results, BIND_TEXTS)


@pytest.mark.parametrize("path", ["anonymous", "named"])
def test_rebind_after_failed_launch_reads_only_the_verified_dense_stt(path):
    served = Served(path)
    served.serve(BIND_TEXTS)
    served.corrupt_compact_memo()
    served.corrupt_device_block()
    fallback = served.serve(BIND_TEXTS)
    assert served.sched.reports[-1].fallback_request_ids
    rebind = served.serve(BIND_TEXTS)
    report = served.sched.reports[-1]
    assert not report.bind_skipped and not report.fallback_request_ids
    assert_exact(rebind, BIND_TEXTS)
    assert_exact(fallback, BIND_TEXTS)
    assert served.healed() == 0
