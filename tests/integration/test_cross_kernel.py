"""Integration: all implementations agree on realistic workloads.

The repository's functional contract, exercised end to end on the
magazine corpus: serial python reference, vectorized serial, both AC
kernels under every store scheme, and PFAC all return the identical
match set.
"""

import pytest

from repro.core import DFA, match_serial
from repro.core.serial import match_serial_python
from repro.gpu import Device, fermi_c2050
from repro.kernels import run_global_kernel, run_pfac_kernel, run_shared_kernel
from repro.workload import DatasetFactory


@pytest.fixture(scope="module")
def workload():
    factory = DatasetFactory(scale=0.001, seed=31)
    cell = factory.cell("1MB", 1000)
    return DFA.build(cell.patterns), cell.data


class TestFunctionalAgreement:
    def test_all_implementations_identical(self, workload):
        dfa, data = workload
        reference = match_serial(dfa, data)
        assert len(reference) > 100  # dense, meaningful workload

        results = {
            "global": run_global_kernel(dfa, data, Device()).matches,
            "pfac": run_pfac_kernel(dfa, data, Device()).matches,
        }
        for scheme in ("diagonal", "coalesce_only", "naive", "transposed"):
            results[f"shared/{scheme}"] = run_shared_kernel(
                dfa, data, Device(), scheme=scheme
            ).matches
        for name, matches in results.items():
            assert matches == reference, f"{name} diverged from serial"

    def test_python_reference_on_prefix(self, workload):
        dfa, data = workload
        prefix = bytes(data[:5000])
        assert (
            match_serial(dfa, prefix).as_pairs()
            == match_serial_python(dfa, prefix)
        )

    def test_fermi_device_same_matches_different_time(self, workload):
        """Device config changes timing, never functional results."""
        dfa, data = workload
        gtx = run_shared_kernel(dfa, data, Device())
        fermi = run_shared_kernel(dfa, data, Device(fermi_c2050()))
        assert gtx.matches == fermi.matches
        assert gtx.seconds != fermi.seconds


class TestPerformanceContract:
    def test_paper_ordering_on_real_workload(self, workload):
        dfa, data = workload
        g = run_global_kernel(dfa, data, Device())
        s = run_shared_kernel(dfa, data, Device())
        assert s.seconds < g.seconds

    def test_store_scheme_ordering(self, workload):
        dfa, data = workload
        times = {
            scheme: run_shared_kernel(dfa, data, Device(), scheme=scheme).seconds
            for scheme in ("diagonal", "coalesce_only", "naive")
        }
        assert times["diagonal"] <= times["coalesce_only"] < times["naive"]

    def test_device_memory_accounting(self, workload):
        dfa, data = workload
        dev = Device()
        binding = dev.bind_texture(dfa, "compact")
        assert binding.bytes_total == dfa.stt.stats().bytes_total
        run_shared_kernel(dfa, data, dev)  # works with texture bound
