"""Serving benchmark: batched-scheduler vs per-request scan loop.

The paper's throughput figures assume a resident automaton and measure
the kernel alone; a *serving* deployment additionally pays, per
request, whatever the host program repeats — and the naive loop
repeats everything: STT upload, input copy, kernel, with nothing
overlapped.  :class:`ServeBenchmark` sweeps batch size and prices both
policies on the same modeled device:

* **per_request** — each request runs alone: fresh texture bind (one
  STT upload over PCIe), its own input copy, its own kernel, all
  serialized.  This is the pre-scheduler ``scan`` loop.
* **scheduler** — the :class:`~repro.serve.ScanScheduler` path: one
  resident binding for the whole sweep, requests fused into one kernel
  buffer, H2D copies double-buffered against ``kernel_body`` on the
  modeled copy/compute streams (docs/MODEL.md §8).

Both policies run the *same functional kernel* over the same bytes —
match results are asserted identical before any number is reported —
so the sweep isolates scheduling policy, exactly like the paper
isolates memory placement.  Cells are exported through the standard
:class:`~repro.obs.BenchCollector` (schema v2, ``throughput-vs-batch-
size`` cells named ``batch{N}``), so ``repro-ac perfdiff`` gates the
scheduler's modeled wins like any other kernel stat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.runner import CellResult, launch_entry
from repro.compress.backend import DEFAULT_BACKEND
from repro.core.dfa import DFA
from repro.errors import ExperimentError
from repro.gpu.device import Device
from repro.kernels.shared_mem import run_shared_kernel
from repro.serve import ScanScheduler
from repro.workload.datasets import DatasetFactory

#: Default batch sizes swept by the CLI/CI smoke run.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ServeCell:
    """One batch-size sweep point (both policies, same work)."""

    batch_size: int
    n_patterns: int
    total_bytes: int
    matches: int
    #: Modeled end-to-end seconds: scheduler pipeline (incl. the batch's
    #: one-time bind when it was not resident).
    scheduler_seconds: float
    #: Modeled end-to-end seconds: per-request loop (bind + copy +
    #: kernel per request, fully serialized).
    per_request_seconds: float
    #: Copy time hidden under compute by the dual-stream pipeline.
    overlap_saved_seconds: float

    @property
    def speedup(self) -> float:
        """per_request / scheduler (>1 means batching won)."""
        return self.per_request_seconds / self.scheduler_seconds

    def gbps(self, seconds: float) -> float:
        """Throughput for this cell's bytes at *seconds*."""
        return self.total_bytes * 8 / seconds / 1e9 if seconds > 0 else 0.0


class ServeBenchmark:
    """Sweeps batch sizes through scheduler and per-request policies.

    Fully deterministic in ``seed``: texts are drawn from a seeded
    generator per batch size, the dictionary comes from the standard
    :class:`~repro.workload.datasets.DatasetFactory`, and every
    reported number is modeled — the determinism test replays a sweep
    and asserts byte-identical cells.
    """

    def __init__(
        self,
        *,
        seed: int = 2013,
        n_patterns: int = 100,
        text_bytes: int = 4096,
        collector=None,
    ):
        if text_bytes < 1:
            raise ExperimentError(
                f"text_bytes must be >= 1, got {text_bytes}"
            )
        self.seed = seed
        self.n_patterns = n_patterns
        self.text_bytes = text_bytes
        self.collector = collector
        self.factory = DatasetFactory(seed=seed)
        self._dfa: Optional[DFA] = None
        if collector is not None:
            collector.on_runner(
                {
                    "seed": seed,
                    "serve_n_patterns": n_patterns,
                    "serve_text_bytes": text_bytes,
                }
            )

    @property
    def dfa(self) -> DFA:
        """The sweep's dictionary automaton (built once)."""
        if self._dfa is None:
            self._dfa = DFA.build(self.factory.patterns_for(self.n_patterns))
        return self._dfa

    def texts_for(self, batch_size: int) -> List[np.ndarray]:
        """The deterministic request payloads for one batch size.

        Lowercase-ASCII bytes (the corpus alphabet, so the dictionary
        actually fires) from a generator seeded by ``(seed,
        batch_size)`` — a cell's inputs never depend on which other
        cells ran.
        """
        rng = np.random.default_rng([self.seed, batch_size])
        return [
            rng.integers(97, 123, size=self.text_bytes, dtype=np.uint8)
            for _ in range(batch_size)
        ]

    def _per_request_seconds(self, texts: Sequence[np.ndarray]) -> float:
        """Price the naive loop: bind + copy + kernel per request."""
        stt_bytes = self.dfa.stt.stats().bytes_total
        total = 0.0
        for text in texts:
            device = Device()
            device.bind_texture(self.dfa, DEFAULT_BACKEND)
            kr = run_shared_kernel(self.dfa, text, device)
            total += (
                device.copy_h2d_seconds(stt_bytes)
                + device.copy_h2d_seconds(text.nbytes)
                + kr.seconds
            )
        return total

    def run_cell(self, batch_size: int) -> ServeCell:
        """Run one batch-size point; both policies, equality-checked."""
        if batch_size < 1:
            raise ExperimentError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        texts = self.texts_for(batch_size)
        total_bytes = sum(t.nbytes for t in texts)
        patterns = self.factory.patterns_for(self.n_patterns)

        scheduler = ScanScheduler(backend="gpu", max_batch=batch_size)
        sched_results = scheduler.scan_many(patterns, texts)
        report = scheduler.reports[-1]
        if report.timing is None:
            raise ExperimentError("the gpu batch report carries no pipeline timing")

        # The reference: each text scanned alone on a fresh device.
        oracle_device = Device()
        oracle_device.bind_texture(self.dfa, DEFAULT_BACKEND)
        batch_kr = run_shared_kernel(
            self.dfa, np.concatenate(texts), oracle_device
        )
        for text, got in zip(texts, sched_results):
            ref_dev = Device()
            ref_dev.bind_texture(self.dfa, DEFAULT_BACKEND)
            ref = run_shared_kernel(self.dfa, text, ref_dev).matches
            if got != ref:
                raise ExperimentError(
                    "scheduler/per-request match divergence at batch size "
                    f"{batch_size}: {len(got)} vs {len(ref)} matches"
                )

        cell = ServeCell(
            batch_size=batch_size,
            n_patterns=self.n_patterns,
            total_bytes=total_bytes,
            matches=report.matches,
            scheduler_seconds=report.timing.makespan_seconds,
            per_request_seconds=self._per_request_seconds(texts),
            overlap_saved_seconds=report.timing.overlap_saved_seconds,
        )
        if self.collector is not None:
            self.collector.on_cell(
                self._cell_result(cell, batch_kr), cached=False
            )
        return cell

    def _cell_result(self, cell: ServeCell, batch_kr) -> CellResult:
        """Export one sweep point as a schema-v2 bench cell.

        Both policy entries carry the *same* counters block — they run
        the same functional kernel over the same bytes; only the
        modeled host-side schedule (seconds/gbps) differs.
        """
        kernels = {
            name: launch_entry(
                batch_kr, name, seconds, cell.gbps(seconds), cell.matches
            )
            for name, seconds in (
                ("scheduler", cell.scheduler_seconds),
                ("per_request", cell.per_request_seconds),
            )
        }
        return CellResult(
            size_label=f"batch{cell.batch_size}",
            paper_bytes=cell.total_bytes,
            sim_bytes=cell.total_bytes,
            n_patterns=cell.n_patterns,
            n_states=self.dfa.n_states,
            kernels=kernels,
        )

    def run(
        self, batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES
    ) -> List[ServeCell]:
        """Sweep *batch_sizes*; one :class:`ServeCell` each."""
        return [self.run_cell(b) for b in batch_sizes]


def render_sweep(cells: Sequence[ServeCell]) -> str:
    """Human-readable sweep table (CLI output)."""
    lines = [
        f"{'batch':>5}  {'bytes':>8}  {'scheduler':>12}  "
        f"{'per-request':>12}  {'speedup':>7}  {'overlap saved':>13}",
    ]
    for c in cells:
        lines.append(
            f"{c.batch_size:>5}  {c.total_bytes:>8}  "
            f"{c.scheduler_seconds * 1e6:>9.2f} us  "
            f"{c.per_request_seconds * 1e6:>9.2f} us  "
            f"{c.speedup:>6.2f}x  "
            f"{c.overlap_saved_seconds * 1e9:>10.1f} ns"
        )
    return "\n".join(lines)
