"""The one host program shared by the shared, global and PFAC kernels.

:func:`repro.kernels.base.run_on_device` owns every kernel's device
lifecycle (checksummed input copy, texture bind and verification,
paired release), and ``stt_backend`` is the kernels' only table
selector.  These tests pin both contracts for all three kernels.
"""

import pytest

from repro.errors import IntegrityError
from repro.gpu import Device
from repro.kernels import (
    run_global_kernel,
    run_pfac_kernel,
    run_shared_kernel,
    segcache,
)
from repro.resilience.faults import FaultInjector, FaultPlan

TEXT = b"she sells sea shells by the seashore; ushers saw hers " * 40

KERNELS = {
    "shared": run_shared_kernel,
    "global": run_global_kernel,
    "pfac": run_pfac_kernel,
}


@pytest.fixture(autouse=True)
def fresh_segcache():
    segcache.clear()
    yield
    segcache.clear()


@pytest.mark.parametrize("name", list(KERNELS))
def test_default_and_explicit_compact_share_one_segment(english_dfa, name):
    """The default backend is ``compact``: the AC kernels serve the
    explicit run from the default run's segment, and PFAC (which keeps
    no segment) returns the same result."""
    run = KERNELS[name]
    first = run(english_dfa, TEXT, Device())
    before = segcache.CACHE.stats()
    second = run(english_dfa, TEXT, Device(), stt_backend="compact")
    after = segcache.CACHE.stats()
    assert after["entries"] == before["entries"]
    assert after["hits"] == before["hits"] + (name != "pfac")
    assert second.matches == first.matches
    assert second.counters == first.counters
    assert second.timing == first.timing


@pytest.mark.parametrize("name", list(KERNELS))
def test_garbled_input_copy_is_refused_without_leaking(english_dfa, name):
    run = KERNELS[name]
    device = Device(injector=FaultInjector(FaultPlan.single("input_garble")))
    device.bind_texture(english_dfa, "compact")
    allocated = device.allocated_bytes
    with pytest.raises(IntegrityError):
        run(english_dfa, TEXT, device)
    assert device.allocated_bytes == allocated
    # The fault was one-shot: the same device then runs clean and
    # releases everything it took.
    assert run(english_dfa, TEXT, device).matches == (
        run(english_dfa, TEXT, Device()).matches
    )
    assert device.allocated_bytes == allocated
