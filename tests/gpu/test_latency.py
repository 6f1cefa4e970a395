"""Unit tests for the analytic latency model and device facade."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import DeviceError, LaunchError, MemoryModelError
from repro.gpu import (
    Device,
    EventCounters,
    KernelCost,
    LaunchConfig,
    estimate_time,
    gtx285,
)
from repro.gpu.latency import h2d_copy_seconds


def make_cost(
    config,
    compute=1e6,
    requests=0.0,
    mem_bytes=0.0,
    warps_per_sm=None,
    input_bytes=1 << 20,
):
    counters = EventCounters(
        bytes_owned=input_bytes,
        bytes_scanned=input_bytes,
        texture_accesses=input_bytes,
        texture_misses=int(requests),
    )
    occ = config.occupancy(128, 0) if warps_per_sm is None else warps_per_sm
    return KernelCost(
        counters=counters,
        occupancy=occ,
        compute_cycles_total=compute,
        # One full-latency stall per "request" for these tests.
        dependent_latency_cycles=requests * config.global_latency_cycles,
        mem_bytes_total=mem_bytes,
        input_bytes=input_bytes,
    )


class TestEstimateTime:
    def test_compute_bound(self):
        cfg = gtx285()
        t = estimate_time(make_cost(cfg, compute=3e7, requests=10), cfg)
        assert t.regime == "compute_bound"
        # Body = compute + kappa * (small memory term) + launch overhead.
        assert t.total_cycles == pytest.approx(
            3e7 / cfg.sm_count
            + cfg.overlap_inefficiency * t.memory_latency_cycles
            + t.launch_overhead_cycles
        )

    def test_latency_bound(self):
        cfg = gtx285()
        t = estimate_time(make_cost(cfg, compute=1e4, requests=1e6), cfg)
        assert t.regime == "latency_bound"
        assert t.memory_latency_cycles > t.compute_cycles

    def test_bandwidth_bound(self):
        cfg = gtx285()
        t = estimate_time(
            make_cost(cfg, compute=1e3, requests=10, mem_bytes=10e9), cfg
        )
        assert t.regime == "bandwidth_bound"

    def test_mwp_capped_by_warps(self):
        cfg = gtx285()
        occ_lo = cfg.occupancy(32, 0)  # 8 blocks x 1 warp = 8 warps/SM
        occ_hi = cfg.occupancy(512, 0)  # 32 warps/SM
        lo = estimate_time(
            make_cost(cfg, compute=1.0, requests=1e6, warps_per_sm=occ_lo), cfg
        )
        hi = estimate_time(
            make_cost(cfg, compute=1.0, requests=1e6, warps_per_sm=occ_hi), cfg
        )
        assert lo.total_cycles > hi.total_cycles
        assert lo.mwp < hi.mwp

    def test_mwp_capped_by_departure_rate(self):
        cfg = gtx285().with_overrides(memory_departure_cycles=250.0)
        occ = cfg.occupancy(512, 0)
        t = estimate_time(
            make_cost(cfg, compute=1.0, requests=1e5, warps_per_sm=occ), cfg
        )
        assert t.mwp == pytest.approx(500.0 / 250.0)

    def test_launch_overhead_floor(self):
        cfg = gtx285()
        t = estimate_time(make_cost(cfg, compute=0.0, requests=0.0), cfg)
        assert t.seconds >= cfg.kernel_launch_overhead_us * 1e-6 * 0.99

    def test_pipelined_requests_cost_departure_only(self):
        cfg = gtx285()
        base = make_cost(cfg, compute=0.0)
        pipelined = KernelCost(
            counters=base.counters,
            occupancy=base.occupancy,
            compute_cycles_total=0.0,
            mem_requests_pipelined=1e6,
            input_bytes=base.input_bytes,
        )
        dependent = KernelCost(
            counters=base.counters,
            occupancy=base.occupancy,
            compute_cycles_total=0.0,
            dependent_latency_cycles=1e6 * cfg.global_latency_cycles,
            input_bytes=base.input_bytes,
        )
        tp = estimate_time(pipelined, cfg)
        td = estimate_time(dependent, cfg)
        # Dependent chains pay latency/MWP per request; pipelined pay
        # only the departure interval.  With MWP=32 and L=500, the
        # dependent path is ~1.5x slower than the 10-cycle pipeline.
        assert td.memory_latency_cycles > tp.memory_latency_cycles

    def test_throughput_gbps(self):
        cfg = gtx285()
        t = estimate_time(make_cost(cfg, compute=3e7), cfg)
        n = 1 << 20
        assert t.throughput_gbps(n) == pytest.approx(n * 8 / t.seconds / 1e9)

    def test_negative_cost_rejected(self):
        cfg = gtx285()
        with pytest.raises(DeviceError):
            estimate_time(make_cost(cfg, compute=-1.0), cfg)

    def test_h2d_copy(self):
        cfg = gtx285()
        assert h2d_copy_seconds(cfg.h2d_bandwidth_gbs * 1e9, cfg) == pytest.approx(1.0)
        with pytest.raises(DeviceError):
            h2d_copy_seconds(-1, cfg)


class TestDevice:
    def test_alloc_guard(self):
        dev = Device()
        dev.alloc(512 << 20)
        with pytest.raises(DeviceError, match="exhausted"):
            dev.alloc(600 << 20)
        dev.free_all()
        dev.alloc(600 << 20)  # fine after free

    def test_bind_texture(self, paper_dfa):
        dev = Device()
        binding = dev.bind_texture(paper_dfa, "compact")
        assert binding.n_states == 10
        assert dev.texture is binding

    def test_launch_validates_geometry(self):
        dev = Device()
        cfg = dev.config
        cost = make_cost(cfg)
        with pytest.raises(LaunchError):
            dev.launch(LaunchConfig(n_blocks=10, threads_per_block=1024), cost)

    def test_launch_occupancy_mismatch_rejected(self):
        dev = Device()
        cost = make_cost(dev.config)  # built for 128-thread blocks (32 warps/SM)
        with pytest.raises(LaunchError, match="occupancy"):
            # 96-thread blocks: 8 blocks x 3 warps = 24 warps/SM.
            dev.launch(LaunchConfig(n_blocks=10, threads_per_block=96), cost)

    def test_launch_ok(self):
        dev = Device()
        cost = make_cost(dev.config)
        t = dev.launch(LaunchConfig(n_blocks=60, threads_per_block=128), cost)
        assert t.seconds > 0

    def test_launch_zero_blocks_rejected(self):
        with pytest.raises(LaunchError):
            LaunchConfig(n_blocks=0, threads_per_block=128)


class TestEventCounters:
    def test_add_accumulates_every_field(self):
        a = EventCounters(bytes_owned=1, texture_accesses=5, texture_misses=2)
        b = EventCounters(bytes_owned=2, texture_accesses=3, texture_misses=1)
        a.add(b)
        assert a.bytes_owned == 3
        assert a.texture_accesses == 8 and a.texture_misses == 3

    def test_derived_rates(self):
        c = EventCounters(
            texture_accesses=10,
            texture_misses=2,
            shared_accesses=4,
            shared_serialized_accesses=10,
            bytes_owned=100,
            bytes_scanned=150,
        )
        assert c.texture_hit_rate == pytest.approx(0.8)
        assert c.bank_conflict_excess == 6
        assert c.avg_conflict_degree == 2.5
        assert c.overlap_ratio == 1.5

    def test_defaults_are_neutral(self):
        c = EventCounters()
        assert c.texture_hit_rate == 1.0
        assert c.avg_conflict_degree == 1.0
        assert c.overlap_ratio == 1.0
        c.validate()

    def test_validate_catches_inconsistency(self):
        # More miss-line requests than 16 lanes could possibly issue.
        c = EventCounters(texture_accesses=1, texture_misses=20)
        with pytest.raises(MemoryModelError):
            c.validate()

    def test_validate_survives_optimized_mode(self):
        # A typed error, not an assert: ``python -O`` must keep it.
        code = (
            "from repro.errors import MemoryModelError\n"
            "from repro.gpu import EventCounters\n"
            "c = EventCounters(texture_accesses=1, texture_misses=20)\n"
            "try:\n"
            "    c.validate()\n"
            "except MemoryModelError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('validate() passed an inconsistent bundle')\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
