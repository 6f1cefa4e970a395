"""Regression: the GPU scan path binds the STT texture exactly once.

``Matcher`` used to create a fresh device (and re-upload the STT) for
every ``scan``/``scan_packets`` call; the persistent-device fix makes
the binding a one-time cost.  Pinned two ways: the device's lifetime
``bind_count`` and the number of ``bind_texture`` spans in a trace.
"""

from __future__ import annotations

import numpy as np

from repro.core import PatternSet, integrity
from repro.core.tiled import GatherKernel
from repro.gpu.device import Device
from repro.kernels import segcache
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

    def test_repeat_batch_verifies_gathered_bytes_once(self, monkeypatch):
        """Skipping the bind keeps both integrity checks, each once: a
        repeat gpu batch runs the cache hit's dense row-CRC pass (and no
        other row-CRC pass), then one texture check whose block CRCs
        cover exactly the arrays the launch's gather kernel reads."""
        sched = ScanScheduler()
        rules = PatternSet.from_strings(IDS)
        sched.scan_many(rules, ["ushers", "she"])
        segcache.clear()  # the repeat batch must really scan
        calls = []
        verified = []
        gathered = []

        def tagged(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        def verify_texture(device):
            calls.append("verify_texture")
            verified.append([a.data for a in device.gather_arrays])
            return real_verify(device)

        def gather_init(kernel, *args, **kwargs):
            real_init(kernel, *args, **kwargs)
            gathered.append([kernel.col_flat, kernel.cls_lut, kernel.flag_flat])

        real_verify = Device.verify_texture
        real_init = GatherKernel.__init__
        monkeypatch.setattr(
            integrity,
            "stt_row_checksums",
            tagged("row_crc", integrity.stt_row_checksums),
        )
        monkeypatch.setattr(
            CacheEntry, "verify", tagged("cache_verify", CacheEntry.verify)
        )
        monkeypatch.setattr(Device, "verify_texture", verify_texture)
        monkeypatch.setattr(GatherKernel, "__init__", gather_init)
        sched.scan_many(rules, ["hers", "his"])
        assert sched.reports[-1].bind_skipped
        assert calls == ["cache_verify", "row_crc", "verify_texture"]
        (checked,) = verified
        (read,) = gathered
        assert len(checked) == len(read) == 3
        assert all(c is r for c, r in zip(checked, read))
