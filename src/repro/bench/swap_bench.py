"""Hot-swap benchmark: rebuild-time-vs-churn and swap throughput dip.

Two cell families price the cost of changing rules while serving
(docs/MODEL.md §10):

* **rebuild-vs-churn** (wall-clock, min-of-3) — for a dictionary of
  ``n_patterns`` and a delta touching a ``churn`` fraction of it, time
  the swap's build as :class:`~repro.serve.epoch.EpochManager` runs it
  (:meth:`DeltaBuilder.apply`: the new dictionary, one ``DFA.build``
  and its row checksums) against the trie path over the same target
  with the same row-checksum pass
  (``DFA.from_automaton(AhoCorasickAutomaton.build(...))``, the
  reference construction).  :meth:`SwapBenchmark.run_rebuild_cells`
  asserts the acceptance bar (>= ``min_speedup`` at <= 1% churn)
  instead of leaving it to eyeballs.

* **swap-dip** (modeled, deterministic) — during an epoch swap the
  incoming version's STT must cross PCIe while request payloads keep
  flowing on the same modeled copy stream.  The swap protocol
  rate-limits that upload so each batch donates at most
  ``dip_budget`` of its steady-state makespan to the upload; the
  tradeoff is a longer swap window (more batches until the table is
  resident).  Cells report both sides — the bounded per-batch dip and
  the window length — and export through the standard
  :class:`~repro.obs.BenchCollector` (schema v2, kernels ``steady`` /
  ``during_swap``) so ``repro-ac perfdiff`` gates the dip like any
  other kernel stat.

Both families are fully seeded; the dip family is modeled end to end,
so replaying a sweep reproduces byte-identical cells.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.runner import (
    MT_WORKERS,
    CellResult,
    cpu_baselines,
    launch_entry,
)
from repro.compress.backend import DEFAULT_BACKEND
from repro.core.automaton import AhoCorasickAutomaton
from repro.core.delta import DeltaBuilder, PatternDelta
from repro.core.dfa import DFA
from repro.core.integrity import stt_row_checksums
from repro.errors import ExperimentError
from repro.gpu.device import Device
from repro.kernels.shared_mem import run_shared_kernel
from repro.serve import ScanScheduler
from repro.workload.datasets import DatasetFactory

#: Churn fractions swept by the rebuild family (1% is the acceptance
#: point; the rest show the leverage curve).
DEFAULT_CHURNS = (0.001, 0.005, 0.01, 0.05)

#: Batch sizes swept by the dip family.
DEFAULT_DIP_BATCHES = (4, 8, 16)


@dataclass(frozen=True)
class RebuildCell:
    """One rebuild-vs-churn point (wall-clock, min-of-``repeats``).

    ``build_seconds`` is the swap's build (:meth:`DeltaBuilder.apply`);
    ``trie_seconds`` the trie path plus the same row-checksum pass,
    over the same target dictionary.
    """

    n_patterns: int
    churn: float
    n_added: int
    n_removed: int
    trie_seconds: float
    build_seconds: float

    @property
    def speedup(self) -> float:
        """trie / build (>1 means the swap's build won)."""
        return self.trie_seconds / self.build_seconds


@dataclass(frozen=True)
class SwapDipCell:
    """One modeled swap-window point at a batch size."""

    batch_size: int
    n_patterns: int
    total_bytes: int
    matches: int
    #: Steady-state modeled batch makespan (no swap in flight).
    steady_seconds: float
    #: Same batch while the incoming table is uploading (rate-limited).
    during_swap_seconds: float
    #: Full PCIe cost of the incoming epoch's STT.
    stt_copy_seconds: float
    #: Batches until the upload completes under the rate limit.
    swap_window_batches: int

    @property
    def dip(self) -> float:
        """Fractional throughput lost per batch during the window."""
        return 1.0 - self.steady_seconds / self.during_swap_seconds

    def gbps(self, seconds: float) -> float:
        """Throughput for this cell's bytes at *seconds*."""
        return self.total_bytes * 8 / seconds / 1e9 if seconds > 0 else 0.0


class SwapBenchmark:
    """Sweeps the two hot-swap cell families.

    Parameters
    ----------
    dip_budget:
        The swap protocol's per-batch donation cap: the fraction of a
        steady batch makespan the incoming upload may add.  The
        acceptance criterion is <= 5%, so that is the default.
    rebuild_patterns:
        Dictionary size for the rebuild family.  The acceptance bar is
        pinned to the paper's 20k scale; the dip family stays at the
        smaller ``n_patterns`` where one batch's modeled numbers are
        cheap.
    """

    def __init__(
        self,
        *,
        seed: int = 2013,
        n_patterns: int = 2000,
        rebuild_patterns: int = 20_000,
        text_bytes: int = 8192,
        dip_budget: float = 0.05,
        collector=None,
    ):
        if not 0.0 < dip_budget < 1.0:
            raise ExperimentError(
                f"dip_budget must be in (0, 1), got {dip_budget}"
            )
        self.seed = seed
        self.n_patterns = n_patterns
        self.rebuild_patterns = rebuild_patterns
        self.text_bytes = text_bytes
        self.dip_budget = dip_budget
        self.collector = collector
        self.factory = DatasetFactory(seed=seed)
        if collector is not None:
            collector.on_runner(
                {
                    "seed": seed,
                    "swap_n_patterns": n_patterns,
                    "swap_text_bytes": text_bytes,
                    "swap_dip_budget": dip_budget,
                    "swap_mt_workers": MT_WORKERS,
                }
            )

    # -- rebuild-vs-churn (wall clock) -----------------------------------

    def _delta_for(self, patterns, churn: float) -> PatternDelta:
        """A seeded delta touching ``churn`` of the dictionary."""
        base = patterns.as_bytes_list()
        rng = np.random.default_rng([self.seed, int(churn * 1e6)])
        n_touch = max(1, int(round(len(base) * churn)))
        existing = set(base)
        removed = [
            base[i]
            for i in rng.choice(len(base), size=n_touch, replace=False)
        ]
        added: List[bytes] = []
        while len(added) < n_touch:
            length = int(rng.integers(4, 12))
            pat = bytes(rng.integers(97, 123, size=length, dtype=np.uint8))
            if pat not in existing:
                existing.add(pat)
                added.append(pat)
        return PatternDelta(tuple(added), tuple(removed))

    def run_rebuild_cell(
        self, churn: float, *, repeats: int = 3
    ) -> RebuildCell:
        """Time the swap's build against the trie path at one churn
        point (min-of-*repeats*)."""
        if repeats < 1:
            raise ExperimentError(f"repeats must be >= 1, got {repeats}")
        patterns = self.factory.patterns_for(self.rebuild_patterns)
        base = DeltaBuilder.full(patterns)
        delta = self._delta_for(patterns, churn)

        target = delta.apply_to(patterns)
        trie_s = math.inf
        build_s = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            ac = AhoCorasickAutomaton.build(target)
            stt_row_checksums(DFA.from_automaton(ac).stt)
            trie_s = min(trie_s, time.perf_counter() - t0)
            del ac  # free the dict-per-state trie before timing the build
            t0 = time.perf_counter()
            DeltaBuilder.apply(base, delta)
            build_s = min(build_s, time.perf_counter() - t0)
        return RebuildCell(
            n_patterns=self.rebuild_patterns,
            churn=churn,
            n_added=len(delta.added),
            n_removed=len(delta.removed),
            trie_seconds=trie_s,
            build_seconds=build_s,
        )

    def run_rebuild_cells(
        self,
        churns: Sequence[float] = DEFAULT_CHURNS,
        *,
        repeats: int = 3,
        min_speedup: Optional[float] = 5.0,
    ) -> List[RebuildCell]:
        """Sweep churn fractions; assert the acceptance bar.

        With ``min_speedup`` set (default 5x), the swap's build must
        beat the trie path by it at every cell of <= 1% churn, or the
        sweep raises ``ExperimentError`` — the bench run itself is the
        regression gate for the swap's build time.
        """
        cells = [self.run_rebuild_cell(c, repeats=repeats) for c in churns]
        if min_speedup is not None:
            for cell in cells:
                if cell.churn <= 0.01 and cell.speedup < min_speedup:
                    raise ExperimentError(
                        f"the swap's build at churn {cell.churn:.3%} was "
                        f"only {cell.speedup:.2f}x faster than the trie "
                        f"path (acceptance bar: {min_speedup:.1f}x)"
                    )
        return cells

    # -- swap dip (modeled, deterministic) -------------------------------

    def texts_for(self, batch_size: int) -> List[np.ndarray]:
        """Deterministic request payloads for one batch size."""
        rng = np.random.default_rng([self.seed, batch_size])
        return [
            rng.integers(97, 123, size=self.text_bytes, dtype=np.uint8)
            for _ in range(batch_size)
        ]

    def run_dip_cell(self, batch_size: int) -> SwapDipCell:
        """Model one batch size's swap window.

        The steady makespan comes from a real scheduler batch on the
        modeled pipeline.  The incoming epoch's STT upload is then
        rate-limited to ``dip_budget`` of that makespan per batch;
        ``during_swap_seconds`` is the donated slice on top of steady,
        and the window length is however many batches the upload needs
        at that rate.  The cap is structural, so the modeled dip can
        never exceed the budget.
        """
        if batch_size < 1:
            raise ExperimentError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        patterns = self.factory.patterns_for(self.n_patterns)
        texts = self.texts_for(batch_size)
        total_bytes = sum(t.nbytes for t in texts)

        scheduler = ScanScheduler(backend="gpu", max_batch=batch_size)
        scheduler.scan_many(patterns, texts)
        report = scheduler.reports[-1]
        if report.timing is None:
            raise ExperimentError("the gpu batch report carries no pipeline timing")
        steady = report.timing.makespan_seconds

        # The incoming epoch (the swap target) differs by a 1% delta;
        # its table is what must cross PCIe mid-serve.
        incoming = DFA.build(self._delta_for(patterns, 0.01).apply_to(patterns))
        device = Device()
        stt_copy = device.copy_h2d_seconds(incoming.stt.stats().bytes_total)
        donation = self.dip_budget * steady
        window = max(1, math.ceil(stt_copy / donation))
        per_batch = stt_copy / window  # <= donation by construction
        during = steady + per_batch

        dfa = DFA.build(patterns)
        batch = np.concatenate(texts)
        oracle_device = Device()
        oracle_device.bind_texture(dfa, DEFAULT_BACKEND)
        batch_kr = run_shared_kernel(dfa, batch, oracle_device)

        cell = SwapDipCell(
            batch_size=batch_size,
            n_patterns=self.n_patterns,
            total_bytes=total_bytes,
            matches=report.matches,
            steady_seconds=steady,
            during_swap_seconds=during,
            stt_copy_seconds=stt_copy,
            swap_window_batches=window,
        )
        if cell.dip > self.dip_budget + 1e-12:
            raise ExperimentError(
                f"modeled swap dip {cell.dip:.3%} exceeds the "
                f"{self.dip_budget:.0%} budget at batch {batch_size}"
            )
        if self.collector is not None:
            self.collector.on_cell(
                self._dip_cell_result(cell, dfa, batch_kr, batch),
                cached=False,
            )
        return cell

    def run_dip_cells(
        self, batch_sizes: Sequence[int] = DEFAULT_DIP_BATCHES
    ) -> List[SwapDipCell]:
        """Sweep batch sizes; one :class:`SwapDipCell` each."""
        return [self.run_dip_cell(b) for b in batch_sizes]

    def _dip_cell_result(
        self, cell: SwapDipCell, dfa: DFA, batch_kr, batch: np.ndarray
    ) -> CellResult:
        """Export one dip point as a schema-v2 bench cell.

        Both entries carry the batch kernel's counters block — the
        functional work is identical; only the modeled host schedule
        (seconds/gbps) differs, exactly like the serving benchmark's
        policy pairs.  The cell also carries the two CPU baselines so
        every ``serial`` / ``serial_mt`` slot in a committed bench
        document is non-null, swapdip family included.  Swapdip cells
        run at sim scale (``paper_bytes == sim_bytes``), so the batch's
        own byte count prices them.
        """
        kernels = {
            name: launch_entry(
                batch_kr, name, seconds, cell.gbps(seconds), cell.matches
            )
            for name, seconds in (
                ("steady", cell.steady_seconds),
                ("during_swap", cell.during_swap_seconds),
            )
        }
        serial, serial_mt = cpu_baselines(dfa, batch, cell.total_bytes)
        return CellResult(
            size_label=f"swapdip_batch{cell.batch_size}",
            paper_bytes=cell.total_bytes,
            sim_bytes=cell.total_bytes,
            n_patterns=cell.n_patterns,
            n_states=dfa.n_states,
            serial=serial,
            serial_mt=serial_mt,
            kernels=kernels,
        )


def render_rebuild_cells(cells: Sequence[RebuildCell]) -> str:
    """Human-readable rebuild-vs-churn table (CLI output)."""
    lines = [
        f"{'churn':>7}  {'+/-':>7}  {'trie path':>10}  {'swap build':>10}  "
        f"{'speedup':>7}",
    ]
    for c in cells:
        lines.append(
            f"{c.churn:>6.2%}  {c.n_added:>3}/{c.n_removed:<3}  "
            f"{c.trie_seconds * 1e3:>7.2f} ms  "
            f"{c.build_seconds * 1e3:>7.2f} ms  "
            f"{c.speedup:>6.1f}x"
        )
    return "\n".join(lines)


def render_dip_cells(cells: Sequence[SwapDipCell]) -> str:
    """Human-readable swap-dip table (CLI output)."""
    lines = [
        f"{'batch':>5}  {'steady':>11}  {'during swap':>11}  "
        f"{'dip':>6}  {'window':>6}  {'stt copy':>10}",
    ]
    for c in cells:
        lines.append(
            f"{c.batch_size:>5}  "
            f"{c.steady_seconds * 1e6:>8.2f} us  "
            f"{c.during_swap_seconds * 1e6:>8.2f} us  "
            f"{c.dip:>5.1%}  "
            f"{c.swap_window_batches:>6}  "
            f"{c.stt_copy_seconds * 1e6:>7.1f} us"
        )
    return "\n".join(lines)
