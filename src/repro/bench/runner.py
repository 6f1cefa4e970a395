"""Experiment runner: grid cells → priced kernel results.

One :class:`ExperimentRunner` owns a dataset factory (the simulated
corpus), a device configuration, the calibration constants, and a cache
of built DFAs; :meth:`run_cell` executes the requested kernels over one
(size, patterns) cell and scales the modeled timings from simulation
byte counts to paper byte counts (see
:mod:`repro.workload.datasets` for why that is sound).

Scaling happens on the *components* of the timing breakdown: compute,
memory-latency and bandwidth cycles are all linear in bytes scanned, so
each is multiplied by ``paper_bytes / sim_bytes`` and the max-rule is
re-applied; the fixed launch overhead is added unscaled.  A cell result
therefore reports what the model predicts for the paper's actual input
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.cpu_model import (
    CpuConfig,
    SerialCost,
    multicore_cost,
    serial_cost_from_histogram,
)
from repro.compress.backend import DEFAULT_BACKEND, cost_of, resolve_backend
from repro.core.dfa import DFA
from repro.core.tiled import feed_sinks
from repro.errors import ExperimentError
from repro.gpu.config import DeviceConfig, gtx285
from repro.gpu.counters import TimingBreakdown
from repro.gpu.device import Device
from repro.kernels.base import KernelResult, TextureLineHistogram
from repro.kernels.global_only import run_global_kernel
from repro.kernels.pfac import run_pfac_kernel
from repro.kernels.shared_mem import run_shared_variants
from repro.obs import NULL_TRACER
from repro.obs.profiler import build_report
from repro.workload.datasets import DatasetFactory, Workload

#: Kernel registry names accepted by run_cell.
KERNEL_NAMES = (
    "serial",
    "serial_mt",
    "global",
    "shared",
    "shared_coalesce",
    "shared_naive",
    "shared_transposed",
    "shared_global_stt",
    "pfac",
)

#: The modeled GPU (the paper's GTX 285) and serial CPU every bench
#: cell is priced on.
DEVICE_CONFIG = gtx285()
CPU = CpuConfig()

#: Launch geometry of the bench cells: the global kernel's chunk length
#: and the shared kernel's block size and per-thread chunk (EXPERIMENTS.md).
GLOBAL_CHUNK_LEN = 512
SHARED_THREADS_PER_BLOCK = 128
SHARED_CHUNK_BYTES = 64

#: Core count priced into the ``serial_mt`` baseline (0: the modeled
#: chip's full core count, ``CPU.n_cores``).
MT_WORKERS = 0

#: The shared kernel's bench variants, each a ``(scheme,
#: stt_in_texture)`` pair.  They differ only in staging templates and
#: pricing, so a cell prices all five from one scan.
SHARED_VARIANTS = {
    "shared": ("diagonal", True),
    "shared_coalesce": ("coalesce_only", True),
    "shared_naive": ("naive", True),
    "shared_transposed": ("transposed", True),
    "shared_global_stt": ("diagonal", False),
}


@dataclass(frozen=True)
class ScaledKernel:
    """One kernel's cell outcome at paper scale."""

    name: str
    seconds: float
    gbps: float
    regime: str
    tex_hit_rate: float
    avg_conflict_degree: float
    warps_per_sm: int
    matches: int
    #: Counter-derived summary (bench schema v2 ``counters`` block):
    #: scale-invariant rates plus the raw event totals the perf gate
    #: diffs.  ``achieved_gbps`` inside is *sim-scale* (the modeled
    #: throughput before paper rescaling), unlike :attr:`gbps`.
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class CellResult:
    """All requested measurements for one grid cell."""

    size_label: str
    paper_bytes: int
    sim_bytes: int
    n_patterns: int
    n_states: int
    serial: Optional[SerialCost] = None
    serial_mt: Optional[SerialCost] = None
    kernels: Dict[str, ScaledKernel] = field(default_factory=dict)
    #: STT storage accounting of the backend the GPU kernels gathered
    #: through (bench schema v2 optional ``stt`` block): backend name,
    #: resident table bytes, dense-equivalent bytes, and the
    #: compression factor ``dense/table`` (1.0 for dense/compact, which
    #: keep the dense texture footprint by the invariance contract).
    stt: Optional[Dict[str, Any]] = None

    def seconds(self, name: str) -> float:
        """Paper-scale run time of *name* ('serial', 'serial_mt' or a
        kernel)."""
        if name in ("serial", "serial_mt"):
            cost = getattr(self, name)
            if cost is None:
                raise ExperimentError(f"{name} baseline not run for this cell")
            return cost.seconds
        try:
            return self.kernels[name].seconds
        except KeyError:
            raise ExperimentError(
                f"kernel {name!r} not run for this cell; "
                f"have {sorted(self.kernels)}"
            ) from None

    def gbps(self, name: str) -> float:
        """Paper-scale throughput of *name* in Gbit/s."""
        if name in ("serial", "serial_mt"):
            cost = getattr(self, name)
            if cost is None:
                raise ExperimentError(f"{name} baseline not run for this cell")
            return cost.throughput_gbps
        return self.kernels[name].gbps

    def speedup(self, fast: str, slow: str) -> float:
        """seconds(slow) / seconds(fast)."""
        return self.seconds(slow) / self.seconds(fast)


def scale_breakdown(
    tb: TimingBreakdown,
    factor: float,
    config: DeviceConfig,
    input_bytes: int,
    body_multiplier: float = 1.0,
) -> Tuple[float, float, str]:
    """Rescale a sim-scale breakdown to paper bytes.

    Returns ``(seconds, gbps, regime)`` after multiplying each linear
    component by *factor* and re-applying the max rule.
    ``body_multiplier`` scales the body only (used by the wave
    correction; launch overhead is unaffected).
    """
    if factor <= 0:
        raise ExperimentError("scale factor must be positive")
    if body_multiplier < 1.0:
        raise ExperimentError("body_multiplier must be >= 1")
    factor = factor * body_multiplier
    comp = tb.compute_cycles * factor
    mem = tb.memory_latency_cycles * factor
    bw = tb.bandwidth_cycles * factor
    # Mirror estimate_time's composition rule on the scaled components.
    memory_term = max(mem, bw)
    kappa = config.overlap_inefficiency
    body = max(comp, memory_term) + kappa * min(comp, memory_term)
    if comp >= memory_term:
        regime = "compute_bound"
    elif mem >= bw:
        regime = "latency_bound"
    else:
        regime = "bandwidth_bound"
    total = body + tb.launch_overhead_cycles
    seconds = config.cycles_to_seconds(total)
    gbps = input_bytes * 8 / seconds / 1e9 if seconds > 0 else 0.0
    return seconds, gbps, regime


def counter_summary(result: KernelResult) -> Dict[str, float]:
    """The bench-schema-v2 ``counters`` block for one kernel result.

    The exact key set is enforced by
    :func:`repro.obs.validate_bench_document` (extras are schema
    errors), so every producer of bench cells — the experiment runner
    and the serving benchmark alike — must build the block here.
    ``achieved_gbps`` is *sim-scale* (the modeled throughput before
    paper rescaling).
    """
    c = result.counters
    return {
        "achieved_gbps": float(result.throughput_gbps),
        "global_transactions": int(c.global_transactions),
        "global_bytes": int(c.global_bytes),
        "bus_efficiency": float(c.bus_efficiency),
        "transactions_per_access": float(c.transactions_per_access),
        "shared_accesses": int(c.shared_accesses),
        "bank_conflict_excess": int(c.bank_conflict_excess),
        "texture_accesses": int(c.texture_accesses),
        "texture_misses": int(c.texture_misses),
        "overlap_ratio": float(c.overlap_ratio),
    }


def launch_entry(
    result: KernelResult, name: str, seconds: float, gbps: float, matches: int
) -> ScaledKernel:
    """A bench kernel entry priced by its caller from *result*'s launch.

    The serving, swap and SLO benches export modeled host schedules
    (``seconds``/``gbps``) over one measured launch, whose regime, hit
    rate, conflict degree, occupancy and counters every entry copies.
    """
    return ScaledKernel(
        name=name,
        seconds=seconds,
        gbps=gbps,
        regime=result.timing.regime,
        tex_hit_rate=result.counters.texture_hit_rate,
        avg_conflict_degree=result.counters.avg_conflict_degree,
        warps_per_sm=result.occupancy.warps_per_sm,
        matches=matches,
        counters=counter_summary(result),
    )


def cpu_baselines(
    dfa: DFA, data: np.ndarray, paper_bytes: int
) -> Tuple[SerialCost, SerialCost]:
    """The modeled ``(serial, serial_mt)`` CPU costs of scanning *data*.

    One sink-only walk feeds a texture-line histogram at the CPU's
    line size, which the L2 model prices over *paper_bytes*; the
    multicore cost follows from the serial one.
    """
    hist = TextureLineHistogram(dfa.n_states, CPU.line_bytes)
    feed_sinks(dfa, data, [hist], chunk_len=4096)
    uniq, counts = hist.nonzero()
    serial = serial_cost_from_histogram(uniq, counts, paper_bytes, CPU)
    return serial, multicore_cost(serial, CPU, n_cores=MT_WORKERS)


class ExperimentRunner:
    """Executes grid cells with caching of dictionaries and cells.

    ``collector`` is an optional :class:`~repro.obs.BenchCollector`
    (or any object with ``on_runner(config)``/``on_cell(result,
    cached=...)``): every :meth:`run_cell` outcome — cache hits
    included, flagged — is recorded, which is how ``BENCH_*.json``
    trajectories are produced by the harness instead of by hand.
    ``tracer`` records a ``run_cell`` span per cell.  ``profiler``
    (a :class:`~repro.obs.KernelProfiler`) receives, for every freshly
    computed cell, each requested kernel's validated per-launch
    :class:`~repro.obs.ProfileReport`.
    """

    def __init__(
        self,
        scale: float = 0.01,
        seed: int = 2013,
        wave_correction: bool = False,
        stt_backend: str = DEFAULT_BACKEND,
        collector=None,
        tracer=None,
        profiler=None,
    ):
        self.scale = scale
        self.seed = seed
        #: STT storage backend every GPU kernel of every cell gathers
        #: through (dense/compact/banded/bitmap).  Part of the cell
        #: cache key and of ``config_dict()`` so exported cells say
        #: which table layout they priced.
        self.stt_backend = resolve_backend(stt_backend)
        self.factory = DatasetFactory(seed=seed, scale=scale)
        #: Opt-in: multiply each kernel body by the wave-quantization
        #: factor of its (paper-scale) grid.  The even-division default
        #: matches the calibration in EXPERIMENTS.md; the correction
        #: exposes the small-input underutilization the paper's 50 KB
        #: cells really suffer (see repro.analysis.waves).
        self.wave_correction = wave_correction
        self.collector = collector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`~repro.obs.KernelProfiler`: the requested
        #: kernels of every *fresh* cell are observed at sim scale
        #: (cell-cache replays are not re-fed — the reports would be
        #: byte-identical).  Reports are built when a kernel's launch
        #: family is priced, so attach the profiler at construction.
        self.profiler = profiler
        if collector is not None:
            collector.on_runner(self.config_dict())
        self._dfa_cache: Dict[int, DFA] = {}
        self._cell_cache: Dict[tuple, CellResult] = {}
        #: (cell, launch family, configuration) → every kernel of the
        #: family priced from that launch (see :meth:`_priced_family`),
        #: and (cell, ``"serial"``, configuration) → the cell's
        #: ``(serial, serial_mt)`` costs (see :meth:`_serial`).
        self._priced: Dict[tuple, Any] = {}

    def config_dict(self) -> Dict[str, object]:
        """The cell configuration, export form (bench documents)."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "global_chunk_len": GLOBAL_CHUNK_LEN,
            "shared_threads_per_block": SHARED_THREADS_PER_BLOCK,
            "shared_chunk_bytes": SHARED_CHUNK_BYTES,
            "wave_correction": self.wave_correction,
            "stt_backend": self.stt_backend,
            "mt_workers": MT_WORKERS,
        }

    def _config_key(self) -> tuple:
        """The mutable knobs that change what a cell measures.

        Part of every cell-cache key: mutating ``wave_correction`` or
        ``stt_backend`` between runs must invalidate cached cells
        (regression: stale results used to be returned).
        """
        return (self.wave_correction, self.stt_backend)

    # -- building blocks ---------------------------------------------------
    def _stt_block(self, dfa: DFA) -> Dict[str, Any]:
        """The cell's ``stt`` storage-accounting block."""
        table = dfa.gather_table(self.stt_backend)
        c = cost_of(dfa, table, self.stt_backend)
        ratio = (
            c.dense_bytes / c.table_bytes if c.table_bytes > 0 else 0.0
        )
        return {
            "backend": c.backend,
            "table_bytes": int(c.table_bytes),
            "dense_bytes": int(c.dense_bytes),
            "ratio": float(ratio),
        }

    def dfa_for(self, n_patterns: int) -> DFA:
        """Build (once) the DFA for a dictionary size."""
        if n_patterns not in self._dfa_cache:
            self._dfa_cache[n_patterns] = DFA.build(
                self.factory.patterns_for(n_patterns)
            )
        return self._dfa_cache[n_patterns]

    def _serial(
        self, size_label: str, n_patterns: int, cell: Workload, dfa: DFA
    ) -> Tuple[SerialCost, SerialCost]:
        """The cell's modeled CPU costs (:func:`cpu_baselines`).

        Kept per (cell, configuration) beside the launch families, so a
        later figure that asks the cell for ``serial`` or ``serial_mt``
        does not walk it again.
        """
        key = (size_label, n_patterns, "serial", self._config_key())
        if key not in self._priced:
            self._priced[key] = cpu_baselines(dfa, cell.data, cell.paper_bytes)
        return self._priced[key]

    def _scaled(
        self, result: KernelResult, cell: Workload, name: str
    ) -> ScaledKernel:
        factor = cell.paper_bytes / cell.sim_bytes
        body_multiplier = 1.0
        if self.wave_correction:
            from repro.analysis.waves import analyze_waves
            from repro.gpu.geometry import LaunchConfig

            paper_blocks = max(round(result.launch.n_blocks * factor), 1)
            wa = analyze_waves(
                LaunchConfig(
                    paper_blocks,
                    result.launch.threads_per_block,
                    result.launch.shared_bytes_per_block,
                ),
                DEVICE_CONFIG,
            )
            body_multiplier = max(wa.quantization_factor, 1.0)
        seconds, gbps, regime = scale_breakdown(
            result.timing,
            factor,
            DEVICE_CONFIG,
            cell.paper_bytes,
            body_multiplier=body_multiplier,
        )
        return ScaledKernel(
            name=name,
            seconds=seconds,
            gbps=gbps,
            regime=regime,
            tex_hit_rate=result.counters.texture_hit_rate,
            avg_conflict_degree=result.counters.avg_conflict_degree,
            warps_per_sm=result.occupancy.warps_per_sm,
            matches=len(result.matches),
            counters=counter_summary(result),
        )

    def _priced_family(
        self, family: str, size_label: str, n_patterns: int, cell: Workload,
        dfa: DFA,
    ) -> Dict[str, tuple]:
        """Every kernel of a launch family on one cell, from one launch.

        ``family`` is ``global``, ``pfac`` or ``shared``; the shared
        family is the five :data:`SHARED_VARIANTS`, priced from one
        scan on one device.  Each kernel maps to its paper-scale
        :class:`ScaledKernel` and, when a profiler is attached, its
        :class:`~repro.obs.ProfileReport`.  Both are small and hold no
        match array, and they are kept per (cell, family,
        configuration) for the runner's life, so a later figure that
        needs the same cell neither rescans nor re-prices it.
        """
        key = (size_label, n_patterns, family, self._config_key())
        if key in self._priced:
            return self._priced[key]
        device = Device(DEVICE_CONFIG)
        device.bind_texture(dfa, self.stt_backend)
        backend = self.stt_backend
        if family == "shared":
            results = run_shared_variants(
                dfa, cell.data, device, variants=SHARED_VARIANTS,
                threads_per_block=SHARED_THREADS_PER_BLOCK,
                chunk_bytes=SHARED_CHUNK_BYTES, stt_backend=backend,
            )
        elif family == "global":
            r = run_global_kernel(
                dfa, cell.data, device, chunk_len=GLOBAL_CHUNK_LEN,
                stt_backend=backend,
            )
            results = {"global": r}
        else:
            r = run_pfac_kernel(dfa, cell.data, device, stt_backend=backend)
            results = {"pfac": r}
        priced = self._priced[key] = {
            name: (
                self._scaled(r, cell, name if family == "shared" else r.name),
                None if self.profiler is None
                else build_report(r, self.profiler.config),
            )
            for name, r in results.items()
        }
        return priced

    # -- cells ---------------------------------------------------------------
    def run_cell(
        self,
        size_label: str,
        n_patterns: int,
        kernels: Sequence[str] = ("serial", "global", "shared"),
    ) -> CellResult:
        """Run the requested kernels/baselines over one grid cell."""
        unknown = set(kernels) - set(KERNEL_NAMES)
        if unknown:
            raise ExperimentError(
                f"unknown kernels {sorted(unknown)}; valid: {KERNEL_NAMES}"
            )
        key = (
            size_label,
            n_patterns,
            tuple(sorted(kernels)),
            self._config_key(),
        )
        if key in self._cell_cache:
            cached = self._cell_cache[key]
            if self.collector is not None:
                self.collector.on_cell(cached, cached=True)
            return cached

        with self.tracer.span(
            "run_cell",
            size=size_label,
            n_patterns=n_patterns,
            kernels=",".join(sorted(kernels)),
        ):
            out = self._compute_cell(size_label, n_patterns, kernels)
        self._cell_cache[key] = out
        if self.collector is not None:
            self.collector.on_cell(out, cached=False)
        return out

    def _compute_cell(
        self,
        size_label: str,
        n_patterns: int,
        kernels: Sequence[str],
    ) -> CellResult:
        """Uncached cell execution (see :meth:`run_cell`).

        Raises :class:`~repro.errors.ExperimentError` when the cell's
        GPU kernels disagree on the match count: every kernel returns
        the exact match set, so a disagreement is a functional bug.
        """
        cell = self.factory.cell(size_label, n_patterns)
        dfa = self.dfa_for(n_patterns)
        out = CellResult(
            size_label=size_label,
            paper_bytes=cell.paper_bytes,
            sim_bytes=cell.sim_bytes,
            n_patterns=n_patterns,
            n_states=dfa.n_states,
            stt=self._stt_block(dfa),
        )

        if "serial" in kernels or "serial_mt" in kernels:
            out.serial, serial_mt = self._serial(
                size_label, n_patterns, cell, dfa
            )
            if "serial_mt" in kernels:
                out.serial_mt = serial_mt
        for name in ("global", *SHARED_VARIANTS, "pfac"):
            if name in kernels:
                family = name if name in ("global", "pfac") else "shared"
                scaled, report = self._priced_family(
                    family, size_label, n_patterns, cell, dfa
                )[name]
                if report is not None:
                    self.profiler.reports.append(report)
                out.kernels[name] = scaled
        counts = {name: k.matches for name, k in out.kernels.items()}
        if len(set(counts.values())) > 1:
            raise ExperimentError(
                f"cell {size_label}/p{n_patterns}: GPU kernels disagree "
                f"on the match count: {counts}"
            )
        return out

    def measure_serial_mt(
        self,
        size_label: str,
        n_patterns: int,
        *,
        workers: int = 0,
        repeats: int = 3,
    ):
        """Wall-clock-measure the real multicore matcher on a cell's data.

        Runs :func:`repro.core.multicore.measure_multicore` over the
        same simulated corpus bytes the cell's modeled baselines are
        priced from.  This is the cross-validation leg for the
        ``serial_mt`` slots: the committed bench numbers come from the
        deterministic contention model, and CI measures the real
        thread pool on the same data to keep the model honest
        (``repro-ac cpubench``).
        """
        from repro.core.multicore import measure_multicore

        cell = self.factory.cell(size_label, n_patterns)
        dfa = self.dfa_for(n_patterns)
        workers = workers or CPU.n_cores
        return measure_multicore(
            dfa,
            cell.data,
            workers=workers,
            repeats=repeats,
        )

    def run_grid(
        self,
        sizes: Sequence[str],
        pattern_counts: Sequence[int],
        kernels: Sequence[str] = ("serial", "global", "shared"),
    ) -> List[CellResult]:
        """Run a (sub)grid through :meth:`run_cell`, sizes-major.

        A cell listed twice is run (and reported to the collector)
        once.
        """
        specs = [(s, p) for s in sizes for p in pattern_counts]
        cells: Dict[Tuple[str, int], CellResult] = {}
        for spec in specs:
            if spec not in cells:
                cells[spec] = self.run_cell(*spec, kernels)
        return [cells[spec] for spec in specs]
