"""Device memory lifecycle: paired alloc/free, no leaks across scans."""

import numpy as np
import pytest

from repro.core import DFA, PatternSet
from repro.errors import DeviceError
from repro.gpu.device import Device
from repro.kernels.global_only import run_global_kernel
from repro.kernels.shared_mem import run_shared_kernel
from repro.matcher import Matcher

PATTERNS = PatternSet.from_strings(["he", "she", "his", "hers"])
TEXT = b"ushers and sheriffs " * 50


@pytest.fixture()
def dfa():
    return DFA.build(PATTERNS)


class TestPairedFree:
    def test_free_returns_remaining(self):
        dev = Device()
        dev.alloc(100)
        dev.alloc(50)
        assert dev.free(100) == 50
        assert dev.free(50) == 0

    def test_over_free_raises(self):
        dev = Device()
        dev.alloc(10)
        with pytest.raises(DeviceError, match="double free"):
            dev.free(11)

    def test_negative_free_raises(self):
        with pytest.raises(DeviceError, match="negative"):
            Device().free(-1)

    def test_allocation_context_manager(self):
        dev = Device()
        with dev.allocation(4096):
            assert dev.allocated_bytes == 4096
        assert dev.allocated_bytes == 0

    def test_allocation_frees_on_error(self):
        dev = Device()
        with pytest.raises(RuntimeError):
            with dev.allocation(4096):
                raise RuntimeError("kernel blew up")
        assert dev.allocated_bytes == 0


class TestTextureLifecycle:
    def test_bind_unbind_pairs_bytes(self, dfa):
        dev = Device()
        binding = dev.bind_texture(dfa, "compact")
        assert dev.allocated_bytes == binding.bytes_total
        dev.unbind_texture()
        assert dev.allocated_bytes == 0
        assert dev.texture is None

    def test_rebind_frees_previous_binding(self, dfa):
        dev = Device()
        first = dev.bind_texture(dfa, "compact")
        second = dev.bind_texture(dfa, "compact")
        assert dev.allocated_bytes == second.bytes_total == first.bytes_total

    def test_unbind_without_bind_is_noop(self):
        dev = Device()
        dev.unbind_texture()
        assert dev.allocated_bytes == 0


class TestKernelsReleaseBuffers:
    def test_shared_kernel_leaves_device_clean(self, dfa):
        dev = Device()
        run_shared_kernel(dfa, TEXT, dev)
        assert dev.allocated_bytes == 0
        assert dev.texture is None

    def test_global_kernel_leaves_device_clean(self, dfa):
        dev = Device()
        run_global_kernel(dfa, TEXT, dev)
        assert dev.allocated_bytes == 0

    def test_kernel_keeps_caller_bound_texture(self, dfa):
        """A pre-bound texture (bench harness style) survives the run."""
        dev = Device()
        binding = dev.bind_texture(dfa, "compact")
        run_shared_kernel(dfa, TEXT, dev)
        assert dev.texture is binding
        assert dev.allocated_bytes == binding.bytes_total

    def test_repeated_scans_do_not_accumulate(self, dfa):
        """A long-lived device serves many scans without exhausting."""
        dev = Device()
        m = Matcher(PATTERNS, backend="gpu", device=dev)
        baseline = None
        for _ in range(64):
            m.scan(TEXT)
            if baseline is None:
                baseline = dev.allocated_bytes
            assert dev.allocated_bytes == baseline

    def test_many_scans_stay_within_global_memory(self, dfa):
        """The old leak would exhaust 1 GB after enough 100 kB scans."""
        dev = Device()
        big = np.zeros(1 << 20, dtype=np.uint8)
        for _ in range(8):
            run_shared_kernel(dfa, big, dev)
        assert dev.allocated_bytes == 0
