"""Regression: the GPU scan path binds the STT texture exactly once.

``Matcher`` used to create a fresh device (and re-upload the STT) for
every ``scan``/``scan_packets`` call; the persistent-device fix makes
the binding a one-time cost.  Pinned two ways: the device's lifetime
``bind_count`` and the number of ``bind_texture`` spans in a trace.

The scheduler tests also pin which integrity checks each batch runs,
on both submission paths: each launch verifies the device copy it
gathers through, and a host table is verified (one row-CRC pass)
before anything reads it — a bind, a rebind, a serial scan — so a
resident repeat batch runs the texture check alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PatternSet, integrity
from repro.core.tiled import GatherKernel
from repro.gpu.device import Device
from repro.matcher import Matcher
from repro.obs import Tracer
from repro.serve import EpochManager, ScanScheduler
from repro.serve import cache as cache_module
from repro.workload.packets import PacketStream

IDS = ["he", "she", "his", "hers"]

#: The scheduler's two submission paths: ``submit`` (the automaton
#: cache) and ``submit_named`` (an epoch-leased rule set).
PATHS = ("anonymous", "named")


def make_stream(rng, n_packets=16):
    payloads = [
        rng.integers(97, 123, size=64, dtype=np.uint8).tobytes()
        for _ in range(n_packets)
    ]
    payload = b"".join(payloads)
    offsets = np.zeros(n_packets + 1, dtype=np.int64)
    np.cumsum([len(p) for p in payloads], out=offsets[1:])
    return PacketStream(
        payload=payload,
        offsets=offsets,
        attack_labels=tuple(False for _ in payloads),
    )


class TestMatcherBindReuse:
    def test_repeat_scans_bind_once(self):
        tracer = Tracer()
        m = Matcher(IDS, backend="gpu", tracer=tracer)
        for _ in range(5):
            m.scan("ushers")
        assert m.device.bind_count == 1
        binds = [
            s for r in tracer.roots for s in r.find("bind_texture")
        ]
        assert len(binds) == 1

    def test_scan_packets_reuses_one_binding(self, rng):
        tracer = Tracer()
        m = Matcher(IDS, backend="gpu", tracer=tracer)
        for _ in range(4):
            m.scan_packets(make_stream(rng))
        assert m.device.bind_count == 1
        binds = [
            s for r in tracer.roots for s in r.find("bind_texture")
        ]
        assert len(binds) == 1

    def test_scan_packets_results_unchanged_by_reuse(self, rng):
        """Binding reuse is a cost fix, not a semantics change."""
        stream = make_stream(rng)
        persistent = Matcher(IDS, backend="gpu")
        first = persistent.scan_packets(stream)
        again = persistent.scan_packets(stream)
        fresh = Matcher(IDS, backend="gpu").scan_packets(stream)
        assert first == again == fresh

    def test_scan_many_binds_once(self):
        m = Matcher(IDS, backend="gpu")
        m.scan_many(["ushers", "hers"])
        m.scan_many(["she", "he", "his"])
        assert m.device.bind_count == 1

    def test_explicit_device_is_kept(self):
        from repro.gpu.device import Device

        device = Device()
        m = Matcher(IDS, backend="gpu", device=device)
        m.scan("ushers")
        m.scan("hers")
        assert m.device is device
        assert device.bind_count == 1


class TestSchedulerBindReuse:
    def test_repeat_batches_bind_once_per_digest(self):
        sched = ScanScheduler()
        for _ in range(3):
            sched.scan_many(IDS, ["ushers", "she"])
        device = sched._matchers[sched.reports[0].digest].device
        assert device.bind_count == 1
        assert [r.bind_skipped for r in sched.reports] == [
            False,
            True,
            True,
        ]

    def test_repeat_batch_verifies_gathered_bytes_once(self, monkeypatch):
        """A resident repeat batch reads no host table, so on either
        path it runs no row-CRC pass: its one check is the texture
        check, whose block CRCs cover exactly the arrays the launch's
        gather kernel reads."""
        for path in PATHS:
            sched, serve = scheduler(path)
            serve(["ushers", "she"])
            with monkeypatch.context() as patch:
                spy = Spy(patch)
                serve(["hers", "his"])
            assert sched.reports[-1].bind_skipped, path
            assert spy.calls == ["verify_texture"], path
            spy.assert_verified_what_was_gathered()

    @pytest.mark.parametrize("path", PATHS)
    def test_first_batch_verifies_host_table_before_bind(
        self, path, monkeypatch
    ):
        sched, serve = scheduler(path)
        spy = Spy(monkeypatch)
        serve(["ushers", "she"])
        assert not sched.reports[-1].bind_skipped
        assert spy.calls == ["row_crc", "bind_texture", "verify_texture"]
        spy.assert_verified_what_was_gathered()

    @pytest.mark.parametrize("path", PATHS)
    def test_rebind_verifies_host_table_first(self, path, monkeypatch):
        """A device that lost its binding rebinds from the host table,
        so that batch re-verifies the table's row CRCs before the bind."""
        sched, serve = scheduler(path)
        serve(["ushers", "she"])
        only_matcher(sched).device.unbind_texture()
        spy = Spy(monkeypatch)
        serve(["hers", "his"])
        assert not sched.reports[-1].bind_skipped
        assert spy.calls == ["row_crc", "bind_texture", "verify_texture"]
        spy.assert_verified_what_was_gathered()

    @pytest.mark.parametrize("path", PATHS)
    def test_serial_batches_verify_every_batch(self, path, monkeypatch):
        """A serial batch scans the host table itself, every time."""
        _, serve = scheduler(path, backend="serial")
        serve(["ushers", "she"])
        spy = Spy(monkeypatch)
        serve(["hers", "his"])
        serve(["she"])
        assert spy.calls == ["row_crc", "row_crc"]


def scheduler(path, **kwargs):
    """``(scheduler, serve)``: *serve(texts)* drains one batch of
    *texts* against the IDS rules on the given submission path."""
    rules = PatternSet.from_strings(IDS)
    if path == "anonymous":
        sched = ScanScheduler(**kwargs)
        return sched, lambda texts: sched.scan_many(rules, texts)
    epochs = EpochManager()
    epochs.register("ids", rules)
    sched = ScanScheduler(epochs=epochs, **kwargs)
    return sched, lambda texts: sched.scan_many_named("ids", texts)


def only_matcher(sched):
    (matcher,) = [
        *sched._matchers.values(),
        *(m for m, _ in sched._epoch_matchers.values()),
    ]
    return matcher


class Spy:
    """Records, in call order, every row-CRC pass over a host table,
    every texture bind and every texture check, plus the arrays each
    check covered and each gather kernel read."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.verified = []
        self.gathered = []
        real_crc = integrity.stt_row_checksums
        real_bind = Device.bind_texture
        real_verify = Device.verify_texture
        real_init = GatherKernel.__init__

        def row_crc(*args, **kwargs):
            self.calls.append("row_crc")
            return real_crc(*args, **kwargs)

        def bind_texture(device, *args, **kwargs):
            self.calls.append("bind_texture")
            return real_bind(device, *args, **kwargs)

        def verify_texture(device):
            self.calls.append("verify_texture")
            self.verified.append([a.data for a in device.gather_arrays])
            return real_verify(device)

        def gather_init(kernel, *args, **kwargs):
            real_init(kernel, *args, **kwargs)
            self.gathered.append(
                [kernel.col_flat, kernel.cls_lut, kernel.flag_flat]
            )

        # The cache computes a new entry's CRCs through its own import.
        monkeypatch.setattr(integrity, "stt_row_checksums", row_crc)
        monkeypatch.setattr(cache_module, "stt_row_checksums", row_crc)
        monkeypatch.setattr(Device, "bind_texture", bind_texture)
        monkeypatch.setattr(Device, "verify_texture", verify_texture)
        monkeypatch.setattr(GatherKernel, "__init__", gather_init)

    def assert_verified_what_was_gathered(self):
        (checked,) = self.verified
        (read,) = self.gathered
        assert len(checked) == len(read) == 3
        assert all(c is r for c, r in zip(checked, read))
