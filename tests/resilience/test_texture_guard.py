"""The per-launch texture check covers exactly the bytes the scan reads.

A device binding holds its own copy of the gather arrays of one STT
backend, with one CRC32 per 64 KiB block, and every kernel — the AC
kernels and PFAC — gathers through that copy.  So a bit flipped in the
copy after binding must either be caught by ``Device.verify_texture``
or reach the scan: these tests fail if the check stops covering what
the scan reads, or if the scan stops reading what the check covers.
"""

import numpy as np
import pytest

from repro.compress.backend import STT_BACKENDS
from repro.core import DFA, PatternSet
from repro.core.serial import match_serial
from repro.errors import IntegrityError
from repro.gpu.device import Device
from repro.kernels import segcache
from repro.kernels.pfac import run_pfac_kernel
from repro.kernels.shared_mem import run_shared_kernel
from repro.resilience import FaultKind
from repro.resilience.campaign import (
    STATUS_SILENT_MISMATCH,
    STATUS_UNTYPED_ERROR,
    run_campaign,
)

PATTERNS = PatternSet.from_strings(["he", "she", "his", "hers"])
TEXT = b"ushers and sheriffs " * 100

#: Per backend, the bound arrays whose zeroing sends every transition
#: to the root, and the array the match test reads.
TRANSITIONS = {
    "dense": ("col_flat",),
    "compact": ("col_flat",),
    "banded": ("default", "values"),
    "bitmap": ("packed", "root_row"),
}
FLAGS = {
    "dense": "flag_flat",
    "compact": "flag_flat",
    "banded": "match_flags",
    "bitmap": "match_flags",
}


@pytest.fixture(autouse=True)
def fresh_segments():
    """Scans must really run, and a corrupted scan must not be cached."""
    segcache.clear()
    yield
    segcache.clear()


@pytest.fixture()
def dfa():
    return DFA.build(PATTERNS)


@pytest.fixture()
def check_off(monkeypatch):
    monkeypatch.setattr(Device, "verify_texture", lambda self: None)


def bound(dfa, backend):
    device = Device()
    device.bind_texture(dfa, backend)
    return device, {a.name: a for a in device.gather_arrays}


def flip_bit(arr: np.ndarray, byte: int) -> None:
    arr.reshape(-1).view(np.uint8)[byte] ^= 1


class TestCampaign:
    def bad_outcomes(self):
        report = run_campaign(
            [FaultKind.STT_BITFLIP], 40, seed=0, chain=("gpu",)
        )
        return report.count(STATUS_SILENT_MISMATCH) + report.count(
            STATUS_UNTYPED_ERROR
        )

    def test_bitflips_reach_the_scan_without_the_check(self, check_off):
        assert self.bad_outcomes() >= 1

    def test_check_leaves_no_silent_or_untyped_outcome(self):
        assert self.bad_outcomes() == 0


@pytest.mark.parametrize("backend", STT_BACKENDS)
class TestEveryBackend:
    def test_flip_in_any_bound_array_names_it(self, dfa, backend):
        device, arrays = bound(dfa, backend)
        for name, array in arrays.items():
            if not array.data.nbytes:
                continue
            byte = array.data.nbytes - 1
            flip_bit(array.data, byte)
            with pytest.raises(IntegrityError, match=rf"CRC32.*\b{name} block 0 \("):
                device.verify_texture()
            flip_bit(array.data, byte)
            device.verify_texture()

    def test_damage_names_the_state_or_class_range(self, dfa, backend):
        device, arrays = bound(dfa, backend)
        name = TRANSITIONS[backend][0]
        flip_bit(arrays[name].data, 0)
        span = (
            r"class 0 state 0 to class \d+ state \d+"
            if name == "col_flat"
            else r"states \d+-\d+"
        )
        with pytest.raises(IntegrityError, match=rf"{name} block 0 \({span}\)"):
            device.verify_texture()

    @pytest.mark.parametrize("target", ["transitions", "flags"])
    def test_scan_reads_the_bound_copy(self, dfa, backend, target, check_off):
        oracle = match_serial(dfa, TEXT)
        assert len(oracle) > 0
        device, arrays = bound(dfa, backend)
        names = TRANSITIONS[backend] if target == "transitions" else (FLAGS[backend],)
        for name in names:
            arrays[name].data[...] = 0
        got = run_shared_kernel(dfa, TEXT, device, stt_backend=backend)
        assert got.matches != oracle
        assert len(got.matches) == 0

    @pytest.mark.parametrize("target", ["transitions", "flags"])
    def test_pfac_reads_the_bound_copy(self, dfa, backend, target, check_off):
        oracle = match_serial(dfa, TEXT)
        device, arrays = bound(dfa, backend)
        names = TRANSITIONS[backend] if target == "transitions" else (FLAGS[backend],)
        for name in names:
            arrays[name].data[...] = 0
        got = run_pfac_kernel(dfa, TEXT, device, stt_backend=backend)
        assert got.matches != oracle
        assert len(got.matches) == 0

    def test_pfac_launch_flags_a_flip_in_any_bound_array(self, dfa, backend):
        device, arrays = bound(dfa, backend)
        for name, array in arrays.items():
            if not array.data.nbytes:
                continue
            byte = array.data.nbytes - 1
            flip_bit(array.data, byte)
            with pytest.raises(IntegrityError, match=rf"CRC32.*\b{name} block 0 \("):
                run_pfac_kernel(dfa, TEXT, device, stt_backend=backend)
            flip_bit(array.data, byte)
        got = run_pfac_kernel(dfa, TEXT, device, stt_backend=backend)
        assert got.matches == match_serial(dfa, TEXT)

    def test_launch_under_another_backend_is_refused(self, dfa, backend):
        from repro.errors import LaunchError

        device, _ = bound(dfa, backend)
        other = next(b for b in STT_BACKENDS if b != backend)
        with pytest.raises(LaunchError, match="stt_backend"):
            run_shared_kernel(dfa, TEXT, device, stt_backend=other)
