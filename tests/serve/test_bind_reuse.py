"""Regression: the GPU scan path binds the STT texture exactly once.

``Matcher`` used to create a fresh device (and re-upload the STT) for
every ``scan``/``scan_packets`` call; the persistent-device fix makes
the binding a one-time cost.  Pinned two ways: the device's lifetime
``bind_count`` and the number of ``bind_texture`` spans in a trace.
"""

from __future__ import annotations

import numpy as np

from repro.core import PatternSet, integrity
from repro.gpu.device import Device
from repro.matcher import Matcher
from repro.obs import Tracer
from repro.serve import ScanScheduler
from repro.serve.cache import CacheEntry
from repro.workload.packets import PacketStream

IDS = ["he", "she", "his", "hers"]


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

    def test_repeat_batch_runs_two_row_crc_passes(self, monkeypatch):
        """Skipping the bind keeps both integrity checks: a repeat gpu
        batch re-checksums the table once for the cache hit and once
        for the texture, and no other row-CRC pass runs."""
        sched = ScanScheduler()
        rules = PatternSet.from_strings(IDS)
        sched.scan_many(rules, ["ushers", "she"])
        calls = []

        def tagged(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            integrity,
            "stt_row_checksums",
            tagged("row_crc", integrity.stt_row_checksums),
        )
        monkeypatch.setattr(
            CacheEntry, "verify", tagged("cache_verify", CacheEntry.verify)
        )
        monkeypatch.setattr(
            Device,
            "verify_texture",
            tagged("verify_texture", Device.verify_texture),
        )
        sched.scan_many(rules, ["hers", "his"])
        assert sched.reports[-1].bind_skipped
        assert calls == ["cache_verify", "row_crc", "verify_texture", "row_crc"]
