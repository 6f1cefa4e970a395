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

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.cpu_model import (
    CpuConfig,
    SerialCost,
    serial_cost_from_histogram,
)
from repro.compress.backend import DEFAULT_BACKEND, cost_of, resolve_backend
from repro.core.dfa import DFA
from repro.core.tiled import DEFAULT_TILE_LEN, feed_sinks
from repro.errors import ExperimentError
from repro.gpu.config import DeviceConfig, gtx285
from repro.gpu.counters import TimingBreakdown
from repro.gpu.device import Device
from repro.kernels.base import CostParams, KernelResult
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


# -- cell (de)serialization ------------------------------------------------

#: On-disk cell-cache format version; bump on any field change so stale
#: cache files are recomputed instead of misread.
CELL_CACHE_VERSION = 1


def cell_to_dict(cell: CellResult) -> Dict[str, Any]:
    """Full-fidelity JSON form of a :class:`CellResult`.

    Unlike the collector's export records this keeps every field needed
    to reconstruct the dataclass exactly (:func:`cell_from_dict`), so a
    cell computed in a worker process or loaded from the on-disk cache
    is indistinguishable from one computed in-process.  Floats survive
    a JSON round-trip bit-exactly (repr-based encoding), which is what
    makes ``--resume`` runs byte-identical to fresh ones.
    """

    def _cost(cost: Optional[SerialCost]) -> Optional[Dict[str, Any]]:
        if cost is None:
            return None
        return {
            "cycles_per_byte": float(cost.cycles_per_byte),
            "line_miss_rate": float(cost.line_miss_rate),
            "seconds": float(cost.seconds),
            "input_bytes": int(cost.input_bytes),
            "cores": int(cost.cores),
        }

    return {
        "cache_version": CELL_CACHE_VERSION,
        "size_label": cell.size_label,
        "paper_bytes": int(cell.paper_bytes),
        "sim_bytes": int(cell.sim_bytes),
        "n_patterns": int(cell.n_patterns),
        "n_states": int(cell.n_states),
        "serial": _cost(cell.serial),
        "serial_mt": _cost(cell.serial_mt),
        "kernels": {
            name: {
                "name": sk.name,
                "seconds": float(sk.seconds),
                "gbps": float(sk.gbps),
                "regime": sk.regime,
                "tex_hit_rate": float(sk.tex_hit_rate),
                "avg_conflict_degree": float(sk.avg_conflict_degree),
                "warps_per_sm": int(sk.warps_per_sm),
                "matches": int(sk.matches),
                "counters": dict(sk.counters),
            }
            for name, sk in cell.kernels.items()
        },
        "stt": dict(cell.stt) if cell.stt is not None else None,
    }


def cell_from_dict(doc: Dict[str, Any]) -> CellResult:
    """Reconstruct a :class:`CellResult` from :func:`cell_to_dict` form."""
    if doc.get("cache_version") != CELL_CACHE_VERSION:
        raise ExperimentError(
            f"cell cache version mismatch: expected {CELL_CACHE_VERSION}, "
            f"got {doc.get('cache_version')!r}"
        )

    def _cost(block: Optional[Dict[str, Any]]) -> Optional[SerialCost]:
        if block is None:
            return None
        return SerialCost(
            cycles_per_byte=block["cycles_per_byte"],
            line_miss_rate=block["line_miss_rate"],
            seconds=block["seconds"],
            input_bytes=block["input_bytes"],
            cores=block["cores"],
        )

    return CellResult(
        size_label=doc["size_label"],
        paper_bytes=doc["paper_bytes"],
        sim_bytes=doc["sim_bytes"],
        n_patterns=doc["n_patterns"],
        n_states=doc["n_states"],
        serial=_cost(doc["serial"]),
        serial_mt=_cost(doc["serial_mt"]),
        kernels={
            name: ScaledKernel(
                name=blk["name"],
                seconds=blk["seconds"],
                gbps=blk["gbps"],
                regime=blk["regime"],
                tex_hit_rate=blk["tex_hit_rate"],
                avg_conflict_degree=blk["avg_conflict_degree"],
                warps_per_sm=blk["warps_per_sm"],
                matches=blk["matches"],
                counters=dict(blk["counters"]),
            )
            for name, blk in doc["kernels"].items()
        },
        stt=dict(doc["stt"]) if doc["stt"] is not None else None,
    )


# -- process-pool worker ---------------------------------------------------

#: Per-worker-process runner, created once by the pool initializer so a
#: worker that computes several cells reuses its DFA and text caches.
_WORKER_RUNNER: Optional["ExperimentRunner"] = None


def _grid_worker_init(export: Dict[str, Any]) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner.from_export(export)


def _grid_worker(
    size_label: str, n_patterns: int, kernels: Tuple[str, ...]
) -> Dict[str, Any]:
    """Compute one cell in a pool worker; returns its serialized form."""
    if _WORKER_RUNNER is None:
        raise ExperimentError("grid worker called before its initializer")
    return cell_to_dict(_WORKER_RUNNER.run_cell(size_label, n_patterns, kernels))


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
        device_config: Optional[DeviceConfig] = None,
        cpu: Optional[CpuConfig] = None,
        params: Optional[CostParams] = None,
        global_chunk_len: int = 512,
        shared_threads_per_block: int = 128,
        shared_chunk_bytes: int = 64,
        wave_correction: bool = False,
        tile_len: Optional[int] = None,
        stt_backend: str = DEFAULT_BACKEND,
        mt_workers: int = 0,
        workers: int = 1,
        cell_cache_dir: Optional[str] = None,
        resume: bool = False,
        collector=None,
        tracer=None,
        profiler=None,
    ):
        self.scale = scale
        self.seed = seed
        #: Step-tile length of the tiled lockstep engine (None → the
        #: engine default).  Part of the cell-cache key: the modeled
        #: counters are tile-invariant, so mutating it between runs is
        #: how the tile-size ablation shares one runner.
        self.tile_len = tile_len if tile_len is not None else DEFAULT_TILE_LEN
        #: STT storage backend every GPU kernel of every cell gathers
        #: through (dense/compact/banded/bitmap).  Part of the cell
        #: cache key and of ``config_dict()`` so exported cells say
        #: which table layout they priced.
        self.stt_backend = resolve_backend(stt_backend)
        self.factory = DatasetFactory(seed=seed, scale=scale)
        self.device_config = device_config or gtx285()
        self.cpu = cpu or CpuConfig()
        self.params = params or CostParams()
        self.global_chunk_len = global_chunk_len
        self.shared_threads_per_block = shared_threads_per_block
        self.shared_chunk_bytes = shared_chunk_bytes
        #: Opt-in: multiply each kernel body by the wave-quantization
        #: factor of its (paper-scale) grid.  The even-division default
        #: matches the calibration in EXPERIMENTS.md; the correction
        #: exposes the small-input underutilization the paper's 50 KB
        #: cells really suffer (see repro.analysis.waves).
        self.wave_correction = wave_correction
        #: Core count priced into the ``serial_mt`` baseline (0 → the
        #: modeled chip's full core count, ``cpu.n_cores``).  The bench
        #: cells stay deterministic — ``serial_mt`` is priced by the
        #: :func:`~repro.bench.cpu_model.multicore_cost` contention
        #: model, while :meth:`measure_serial_mt` measures the real
        #: thread-pool matcher for cross-validation.
        self.mt_workers = mt_workers
        #: Process count :meth:`run_grid` fans pending cells across
        #: (<= 1 = in-process).  Every cell is a pure function of the
        #: runner configuration — the dataset streams are seeded by
        #: ``seed`` plus a *stable* per-label hash — so the merged grid
        #: is byte-identical for any worker count.
        self.workers = workers
        #: Directory for content-keyed on-disk cell caching.  Fresh
        #: cells are always written through when set; cached files are
        #: only *read back* when ``resume`` is true, so an interrupted
        #: 200 MB grid restarts from its completed cells.
        self.cell_cache_dir = cell_cache_dir
        self.resume = resume
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
        #: family priced from that launch (see :meth:`_priced_family`).
        self._priced: Dict[tuple, Dict[str, tuple]] = {}

    def config_dict(self) -> Dict[str, object]:
        """The tunable configuration, export form (bench documents)."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "global_chunk_len": self.global_chunk_len,
            "shared_threads_per_block": self.shared_threads_per_block,
            "shared_chunk_bytes": self.shared_chunk_bytes,
            "wave_correction": self.wave_correction,
            "tile_len": self.tile_len,
            "stt_backend": self.stt_backend,
            "mt_workers": self.mt_workers,
        }

    def _config_key(self) -> tuple:
        """The mutable knobs that change what a cell measures.

        Part of every cell-cache key: mutating ``wave_correction``,
        ``shared_chunk_bytes``, ``shared_threads_per_block`` or
        ``global_chunk_len`` between runs must invalidate cached cells
        (regression: stale results used to be returned).
        """
        return (
            self.global_chunk_len,
            self.shared_threads_per_block,
            self.shared_chunk_bytes,
            self.wave_correction,
            self.tile_len,
            self.stt_backend,
            self.mt_workers,
            self.params,
        )

    # -- cross-process / on-disk identity ----------------------------------
    def export_config(self) -> Dict[str, Any]:
        """Everything a worker process needs to rebuild this runner.

        The device, CPU and cost-parameter dataclasses are exported as
        nested dicts (they are frozen dataclasses of plain scalars), so
        the reconstruction in :meth:`from_export` is exact and the
        worker's cells are byte-identical to in-process ones.
        Observers (collector/tracer/profiler) deliberately do not
        cross the process boundary.
        """
        return {
            "scale": self.scale,
            "seed": self.seed,
            "device_config": asdict(self.device_config),
            "cpu": asdict(self.cpu),
            "params": asdict(self.params),
            "global_chunk_len": self.global_chunk_len,
            "shared_threads_per_block": self.shared_threads_per_block,
            "shared_chunk_bytes": self.shared_chunk_bytes,
            "wave_correction": self.wave_correction,
            "tile_len": self.tile_len,
            "stt_backend": self.stt_backend,
            "mt_workers": self.mt_workers,
        }

    @classmethod
    def from_export(cls, export: Dict[str, Any]) -> "ExperimentRunner":
        """Rebuild a runner from :meth:`export_config` output."""
        from repro.gpu.config import TextureCacheConfig

        dc = dict(export["device_config"])
        dc["texture_cache"] = TextureCacheConfig(**dc["texture_cache"])
        return cls(
            scale=export["scale"],
            seed=export["seed"],
            device_config=DeviceConfig(**dc),
            cpu=CpuConfig(**export["cpu"]),
            params=CostParams(**export["params"]),
            global_chunk_len=export["global_chunk_len"],
            shared_threads_per_block=export["shared_threads_per_block"],
            shared_chunk_bytes=export["shared_chunk_bytes"],
            wave_correction=export["wave_correction"],
            tile_len=export["tile_len"],
            stt_backend=export["stt_backend"],
            mt_workers=export["mt_workers"],
        )

    def cell_cache_key(
        self, size_label: str, n_patterns: int, kernels: Sequence[str]
    ) -> str:
        """Content key of one cell's measurement.

        The key covers the cache format version, the cell coordinates,
        the kernel set, and the full runner configuration (seed and
        scale determine the simulated corpus bytes deterministically —
        the dataset streams use stable label hashes, not Python's
        salted ``hash()``).  Two runners with equal keys produce
        byte-identical cells, whatever the process or machine.
        """
        doc = {
            "cache_version": CELL_CACHE_VERSION,
            "cell": [size_label, int(n_patterns)],
            "kernels": sorted(kernels),
            "config": self.export_config(),
        }
        blob = json.dumps(doc, sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()

    def _cell_cache_path(self, key: str) -> str:
        if self.cell_cache_dir is None:
            raise ExperimentError("no cell cache directory is configured")
        return os.path.join(self.cell_cache_dir, f"cell-{key}.json")

    def _load_cached_cell(self, key: str) -> Optional[CellResult]:
        """The on-disk cell for *key*, or None (corrupt files = miss)."""
        path = self._cell_cache_path(key)
        try:
            with open(path, "r", encoding="ascii") as fh:
                doc = json.load(fh)
            if doc.get("key") != key:
                return None
            return cell_from_dict(doc["cell"])
        except (OSError, ValueError, KeyError, ExperimentError):
            return None

    def _store_cached_cell(self, key: str, cell: CellResult) -> None:
        """Write-through one cell (atomic rename; parallel-safe)."""
        os.makedirs(self.cell_cache_dir, exist_ok=True)
        path = self._cell_cache_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(
                {"key": key, "cell": cell_to_dict(cell)},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        os.replace(tmp, path)

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

    def _serial(self, dfa: DFA, cell: Workload) -> SerialCost:
        from repro.kernels.base import TextureLineHistogram

        hist = TextureLineHistogram(dfa.n_states, self.cpu.line_bytes)
        feed_sinks(dfa, cell.data, [hist], chunk_len=4096)
        uniq, counts = hist.nonzero()
        return serial_cost_from_histogram(
            uniq, counts, cell.paper_bytes, self.cpu
        )

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
                self.device_config,
            )
            body_multiplier = max(wa.quantization_factor, 1.0)
        seconds, gbps, regime = scale_breakdown(
            result.timing,
            factor,
            self.device_config,
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
        device = Device(self.device_config)
        device.bind_texture(dfa, self.stt_backend)
        common = dict(params=self.params, stt_backend=self.stt_backend)
        if family == "shared":
            results = run_shared_variants(
                dfa, cell.data, device, variants=SHARED_VARIANTS,
                threads_per_block=self.shared_threads_per_block,
                chunk_bytes=self.shared_chunk_bytes, tile_len=self.tile_len,
                **common,
            )
        elif family == "global":
            r = run_global_kernel(
                dfa, cell.data, device, chunk_len=self.global_chunk_len,
                tile_len=self.tile_len, **common,
            )
            results = {"global": r}
        else:
            results = {"pfac": run_pfac_kernel(dfa, cell.data, device, **common)}
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
            out.serial = self._serial(dfa, cell)
        if "serial_mt" in kernels:
            from repro.bench.cpu_model import multicore_cost

            out.serial_mt = multicore_cost(
                out.serial, self.cpu, n_cores=self.mt_workers
            )
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
        workers = workers or self.mt_workers or self.cpu.n_cores
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
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        resume: Optional[bool] = None,
    ) -> List[CellResult]:
        """Run a (sub)grid, sizes-major.

        ``workers`` > 1 fans the *pending* cells (not served by the
        in-memory or on-disk cache) across a process pool; each worker
        rebuilds the runner from :meth:`export_config`, so results are
        byte-identical to an in-process run for any worker count.  With
        ``cache_dir`` set, every fresh cell is written through under
        its :meth:`cell_cache_key`; with ``resume`` additionally true,
        existing cache files are loaded instead of recomputed, which is
        how an interrupted paper-scale grid restarts from its completed
        cells.  The collector always sees cells in deterministic
        sizes-major order (cache hits flagged), whatever order the pool
        finished them in.  Pool-computed cells are not observed by the
        ``profiler`` (their per-launch reports live in the workers).
        """
        workers = self.workers if workers is None else workers
        cache_dir = self.cell_cache_dir if cache_dir is None else cache_dir
        resume = self.resume if resume is None else resume
        unknown = set(kernels) - set(KERNEL_NAMES)
        if unknown:
            raise ExperimentError(
                f"unknown kernels {sorted(unknown)}; valid: {KERNEL_NAMES}"
            )
        specs = [(s, p) for s in sizes for p in pattern_counts]

        use_disk = cache_dir is not None
        prev_cache_dir = self.cell_cache_dir
        self.cell_cache_dir = cache_dir
        try:
            mem_key = lambda s, p: (  # noqa: E731 - mirror of run_cell's key
                s, p, tuple(sorted(kernels)), self._config_key(),
            )
            results: Dict[Tuple[str, int], CellResult] = {}
            cached: Dict[Tuple[str, int], bool] = {}
            pending: List[Tuple[str, int]] = []
            for spec in specs:
                if spec in results:
                    continue
                s, p = spec
                hit = self._cell_cache.get(mem_key(s, p))
                if hit is None and use_disk and resume:
                    hit = self._load_cached_cell(
                        self.cell_cache_key(s, p, kernels)
                    )
                    if hit is not None:
                        self._cell_cache[mem_key(s, p)] = hit
                if hit is not None:
                    results[spec], cached[spec] = hit, True
                else:
                    pending.append(spec)

            if pending and workers > 1 and len(pending) > 1:
                from concurrent.futures import ProcessPoolExecutor

                export = self.export_config()
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    initializer=_grid_worker_init,
                    initargs=(export,),
                ) as pool:
                    futures = {
                        spec: pool.submit(
                            _grid_worker, spec[0], spec[1], tuple(kernels)
                        )
                        for spec in pending
                    }
                    for spec, fut in futures.items():
                        cell = cell_from_dict(fut.result())
                        self._cell_cache[mem_key(*spec)] = cell
                        results[spec], cached[spec] = cell, False
            else:
                for spec in pending:
                    s, p = spec
                    with self.tracer.span(
                        "run_cell",
                        size=s,
                        n_patterns=p,
                        kernels=",".join(sorted(kernels)),
                    ):
                        cell = self._compute_cell(s, p, kernels)
                    self._cell_cache[mem_key(s, p)] = cell
                    results[spec], cached[spec] = cell, False

            if use_disk:
                for spec in pending:
                    self._store_cached_cell(
                        self.cell_cache_key(spec[0], spec[1], kernels),
                        results[spec],
                    )
            if self.collector is not None:
                seen = set()
                for spec in specs:
                    if spec in seen:
                        continue
                    seen.add(spec)
                    self.collector.on_cell(
                        results[spec], cached=cached[spec]
                    )
        finally:
            self.cell_cache_dir = prev_cache_dir
        return [results[spec] for spec in specs]
