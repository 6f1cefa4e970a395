"""Compressed-STT benchmark: memory-vs-throughput trade-off curves.

The paper evaluates up to 20,000 dictionary patterns because that is
where the dense two-dimensional STT stops fitting comfortably in the
GTX 285's texture-cacheable memory; IDS-scale rule sets (Snort ships
tens of thousands of content strings) push well past it.  This module
prices that regime: for dictionaries of 5k/20k/50k synthetic
Snort-style contents (:func:`repro.workload.snort.generate_rules`,
seeded and parser-round-tripped) it runs the shared-memory kernel
through each STT storage backend (:mod:`repro.compress.backend`) and
reports, per ``(patterns, backend)`` cell:

* the resident table bytes vs the dense-equivalent bytes (the
  compression factor ``ratio``), and
* the modeled paper-scale throughput, i.e. what the compressed
  layout's extra gather arithmetic (band checks, popcount-ranks,
  failure-chain walks — priced by
  :func:`repro.kernels.base.backend_compute_cycles`) costs against the
  texture-footprint relief it buys.

Cells export through the standard :class:`~repro.obs.BenchCollector`
(bench schema v2 with the per-cell ``stt`` block), so ``repro-ac
perfdiff`` gates them like any other cell, and the sweep is gated on
the headline acceptance bar: the best compressed backend must reach
``min_ratio`` (default 4x) memory reduction at ``gate_patterns``
(default 20k) or :func:`ratio_gate` raises
:class:`~repro.errors.ExperimentError`.

Everything is seeded — dictionaries, corpus text, planted matches —
so replaying a sweep reproduces byte-identical cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.runner import CellResult, ExperimentRunner
from repro.compress.backend import resolve_backend
from repro.errors import ExperimentError, ReproError
from repro.obs import BenchCollector
from repro.workload.datasets import PAPER_SIZES, DatasetFactory, Workload
from repro.workload.snort import generate_pattern_set

#: Default dictionary sizes: the paper's ceiling (20k) bracketed by a
#: comfortable cell (5k) and an IDS-scale one (50k) the dense layout
#: cannot sensibly serve.
DEFAULT_PATTERN_COUNTS = (5_000, 20_000, 50_000)

#: Default backend sweep.  ``dense`` is omitted because ``compact``
#: is timing-identical to it by the invariance contract (both keep the
#: dense texture footprint), so compact rows double as the dense
#: reference.
DEFAULT_BACKENDS = ("compact", "banded", "bitmap")

#: Plant roughly one pattern occurrence per this many corpus bytes so
#: the scan visits deep trie states (where banded rows widen and
#: bitmap failure chains actually walk) instead of skimming the root.
_PLANT_STRIDE = 2_048


class SnortDatasetFactory(DatasetFactory):
    """Dataset factory whose dictionaries are synthetic Snort contents.

    Reuses the base factory's deterministic corpus text for every cell
    (all labels map onto ``base_size``, so custom bench labels like
    ``snortc20k_banded`` need no entry in ``PAPER_SIZES``) but swaps
    the magazine-derived dictionaries for
    :func:`~repro.workload.snort.generate_pattern_set` output, and
    splices a seeded sample of those patterns into the scanned bytes so
    match-side behavior is exercised.  The planted text depends only on
    ``(seed, n_patterns)`` — never the label — so every backend of one
    dictionary size scans byte-identical input.
    """

    def __init__(
        self,
        seed: int = 2013,
        scale: float = 0.005,
        base_size: str = "1MB",
    ):
        super().__init__(seed=seed, scale=scale)
        if base_size not in PAPER_SIZES:
            raise ReproError(
                f"unknown size label {base_size!r}; "
                f"known: {sorted(PAPER_SIZES)}"
            )
        self.base_size = base_size
        self._planted_cache: Dict[int, np.ndarray] = {}

    def patterns_for(self, n_patterns: int):
        """Synthetic snort dictionary of exactly ``n_patterns`` contents."""
        if n_patterns not in self._pattern_cache:
            self._pattern_cache[n_patterns] = generate_pattern_set(
                n_patterns, seed=self.seed
            )
        return self._pattern_cache[n_patterns]

    def _planted_text(self, n_patterns: int) -> np.ndarray:
        """Corpus text with a seeded sample of the dictionary spliced in."""
        if n_patterns not in self._planted_cache:
            data = self.text_for(self.base_size).copy()
            blobs = self.patterns_for(n_patterns).as_bytes_list()
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, n_patterns, 0xB14D])
            )
            k = min(len(blobs), max(64, data.size // _PLANT_STRIDE))
            for i in rng.choice(len(blobs), size=k, replace=False):
                pat = np.frombuffer(blobs[int(i)], dtype=np.uint8)
                pos = int(rng.integers(0, data.size - pat.size + 1))
                data[pos : pos + pat.size] = pat
            self._planted_cache[n_patterns] = data
        return self._planted_cache[n_patterns]

    def cell(self, size_label: str, n_patterns: int) -> Workload:
        """Workload mapping any cell label onto the planted base corpus."""
        data = self._planted_text(n_patterns)
        return Workload(
            size_label=size_label,
            paper_bytes=PAPER_SIZES[self.base_size],
            sim_bytes=int(data.size),
            n_patterns=n_patterns,
            data=data,
            patterns=self.patterns_for(n_patterns),
        )


def cell_label(n_patterns: int, backend: str) -> str:
    """The bench label of one trade-off cell (``snortc20k_banded``)."""
    count = (
        f"{n_patterns // 1000}k" if n_patterns % 1000 == 0 else str(n_patterns)
    )
    return f"snortc{count}_{backend}"


def render_cells(
    cells: Sequence[CellResult], reference_backend: str = "compact"
) -> str:
    """Human-readable memory-vs-throughput table."""
    lines = [
        f"{'patterns':>9} {'backend':>8} {'table_MB':>9} {'dense_MB':>9} "
        f"{'ratio':>7} {'shared_gbps':>12} {'slowdown':>9}"
    ]
    ref_seconds: Dict[int, float] = {}
    for c in cells:
        if c.stt and c.stt["backend"] == reference_backend:
            ref_seconds[c.n_patterns] = c.seconds("shared")
    for c in cells:
        stt = c.stt or {}
        ref = ref_seconds.get(c.n_patterns)
        slow = (
            f"{c.seconds('shared') / ref:8.2f}x" if ref else f"{'-':>9}"
        )
        lines.append(
            f"{c.n_patterns:>9} {stt.get('backend', '?'):>8} "
            f"{stt.get('table_bytes', 0) / 1e6:>9.2f} "
            f"{stt.get('dense_bytes', 0) / 1e6:>9.2f} "
            f"{stt.get('ratio', 0.0):>6.2f}x "
            f"{c.gbps('shared'):>12.2f} {slow}"
        )
    return "\n".join(lines)


def run_compress_bench(
    pattern_counts: Sequence[int] = DEFAULT_PATTERN_COUNTS,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    scale: float = 0.005,
    seed: int = 2013,
    size_label: str = "1MB",
    collector: Optional[BenchCollector] = None,
) -> List[CellResult]:
    """Sweep ``pattern_counts`` x ``backends``; one cell each.

    Each cell runs the shared-memory kernel (the paper's headline
    configuration) over the same planted corpus bytes through one STT
    backend, under a distinct :func:`cell_label`.  The one
    :class:`~repro.bench.runner.ExperimentRunner` is reused across
    backends — ``stt_backend`` is part of its cell-cache key — so the
    expensive 50k-pattern automaton builds once per dictionary size.
    ``collector`` records every cell; :func:`ratio_gate` then applies
    the acceptance bar, so a caller can write the document first.
    """
    if not pattern_counts:
        raise ExperimentError("pattern_counts must be non-empty")
    resolved = [resolve_backend(b) for b in backends]
    if not resolved:
        raise ExperimentError("backends must be non-empty")

    runner = ExperimentRunner(
        scale=scale,
        seed=seed,
        stt_backend=resolved[0],
        collector=collector,
    )
    runner.factory = SnortDatasetFactory(
        seed=seed, scale=scale, base_size=size_label
    )
    if collector is not None:
        # The runner registered its construction-time config; the sweep
        # mutates stt_backend per cell (cells self-describe via their
        # ``stt`` block), so record the full sweep in the document config.
        collector.config["stt_backend"] = "+".join(resolved)
        collector.config["workload"] = "snort-synthetic"
        collector.config["base_size"] = size_label

    cells: List[CellResult] = []
    for n in pattern_counts:
        for backend in resolved:
            runner.stt_backend = backend
            cells.append(
                runner.run_cell(cell_label(n, backend), n, kernels=("shared",))
            )
    return cells


def ratio_gate(
    cells: Sequence[CellResult],
    gate_patterns: int = 20_000,
    min_ratio: float = 4.0,
) -> str:
    """The acceptance bar's verdict line for a sweep's cells.

    Raises :class:`~repro.errors.ExperimentError` when the best
    compressed ratio at ``gate_patterns`` falls below ``min_ratio``, or
    when the sweep has no compressed backend there to gate.
    """
    if gate_patterns not in {c.n_patterns for c in cells}:
        return f"gate: skipped ({gate_patterns} patterns not in sweep)"
    gated = [
        c
        for c in cells
        if c.n_patterns == gate_patterns
        and c.stt is not None
        and c.stt["backend"] not in ("dense", "compact")
    ]
    if not gated:
        swept = sorted({c.stt["backend"] for c in cells if c.stt is not None})
        raise ExperimentError(
            f"ratio gate needs a compressed backend (banded/bitmap) at "
            f"{gate_patterns} patterns; swept backends: {swept}"
        )
    best = max(gated, key=lambda c: c.stt["ratio"])
    verdict = (
        f"gate: best compressed ratio @ {gate_patterns} patterns = "
        f"{best.stt['ratio']:.2f}x ({best.stt['backend']}), "
        f"required >= {min_ratio:.2f}x"
    )
    if best.stt["ratio"] < min_ratio:
        raise ExperimentError(verdict + " -- FAIL")
    return verdict + " -- OK"
