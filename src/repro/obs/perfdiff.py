"""Noise-aware perf-regression gate over ``BENCH_*.json`` trajectories.

:func:`diff_documents` compares two schema-validated bench documents —
a committed baseline and a fresh run — cell by cell, kernel by kernel,
metric by metric, flagging any *worsening* beyond a configurable
relative threshold.  The direction of "worse" is metric-specific
(throughput dropping is a regression; conflict degree rising is a
regression), and the thresholds are deliberately loose enough to
absorb cross-platform floating-point noise while catching the
regressions that matter: a later "optimization" that silently
reintroduces bank conflicts or uncoalesced staging fails CI even when
its wall-clock effect at smoke scale is within noise.

Counter-level metrics (the ``counters`` block schema v2 embeds per
kernel) are gated alongside seconds/Gbps, which is the point: the
paper's contribution *is* the counter story, so the gate protects it
directly rather than through the timing model's lens.

Policy decisions encoded here:

* both documents must carry the same schema version — comparing a v1
  baseline against a v2 run (or vice versa) raises
  :class:`~repro.errors.SchemaError`; regenerate the baseline instead
  of silently skipping the counter gate;
* a baseline of exactly 0 with a worsened nonzero current value is an
  infinite relative change and always flags (the conflict-free scheme
  gaining its first serialized access must not slip through);
* cells or kernels present on one side only are reported but are not
  regressions (grids legitimately grow and shrink between PRs);
* improvements are reported too — a perf PR's win shows up in the same
  report that guards against its losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SchemaError
from repro.obs.collector import validate_bench_document

#: Direction of goodness: +1 = higher is better, -1 = lower is better.
HIGHER, LOWER = 1, -1

#: Default per-metric (direction, relative threshold) policy.  Keys are
#: kernel-stat names, ``counters.``-prefixed counter-summary names, or
#: baseline-stat names (serial/serial_mt blocks).
DEFAULT_THRESHOLDS: Dict[str, Tuple[int, float]] = {
    "gbps": (HIGHER, 0.10),
    "seconds": (LOWER, 0.10),
    "tex_hit_rate": (HIGHER, 0.02),
    "avg_conflict_degree": (LOWER, 0.02),
    "counters.achieved_gbps": (HIGHER, 0.10),
    "counters.bus_efficiency": (HIGHER, 0.05),
    "counters.transactions_per_access": (LOWER, 0.05),
    "counters.global_transactions": (LOWER, 0.10),
    "counters.global_bytes": (LOWER, 0.10),
    "counters.bank_conflict_excess": (LOWER, 0.05),
    "counters.texture_misses": (LOWER, 0.15),
    "counters.overlap_ratio": (LOWER, 0.05),
}

#: Relative changes below this magnitude are never flagged, whatever
#: the threshold — guards against 0-vs-1e-15 float dust.
NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class MetricDelta:
    """One (cell, kernel, metric) comparison outcome."""

    cell: str
    kernel: str
    metric: str
    baseline: float
    current: float
    #: Signed relative change, ``(current - baseline) / |baseline|``;
    #: ``inf``/``-inf`` when the baseline is exactly 0.
    rel_change: float
    threshold: float
    regressed: bool
    improved: bool

    def describe(self) -> str:
        """One report line."""
        if self.rel_change == float("inf"):
            pct = "+inf"
        elif self.rel_change == float("-inf"):
            pct = "-inf"
        else:
            pct = f"{self.rel_change:+.1%}"
        tag = "REGRESSED" if self.regressed else (
            "improved" if self.improved else "ok"
        )
        return (
            f"{self.cell} {self.kernel} {self.metric}: "
            f"{self.baseline:g} -> {self.current:g} ({pct}, "
            f"threshold {self.threshold:.0%}) {tag}"
        )


@dataclass
class PerfDiffReport:
    """Full outcome of one baseline-vs-current comparison."""

    deltas: List[MetricDelta]
    #: Cells present in the baseline but missing from the current run.
    missing_cells: List[str]
    #: Cells the current run added (not gated).
    extra_cells: List[str]

    @property
    def regressions(self) -> List[MetricDelta]:
        """Deltas that worsened past their threshold."""
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[MetricDelta]:
        """Deltas that improved past their threshold."""
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        """True when nothing regressed (missing cells do not fail)."""
        return not self.regressions

    def render(self) -> str:
        """Multi-line report naming every regressed cell/metric."""
        lines = [
            f"perfdiff: {len(self.deltas)} metrics compared, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved"
        ]
        if self.missing_cells:
            lines.append(
                "  cells missing from current run: "
                + ", ".join(self.missing_cells)
            )
        if self.extra_cells:
            lines.append(
                "  cells new in current run: " + ", ".join(self.extra_cells)
            )
        for d in self.regressions:
            lines.append("  !! " + d.describe())
        for d in self.improvements:
            lines.append("     " + d.describe())
        if self.ok:
            lines.append("PASS: no metric regressed past its threshold")
        else:
            worst = sorted(
                self.regressions,
                key=lambda d: -abs(d.rel_change)
                if d.rel_change not in (float("inf"), float("-inf"))
                else float("-inf"),
            )
            names = {f"{d.cell}/{d.kernel}/{d.metric}" for d in worst}
            lines.append(
                f"FAIL: {len(names)} metric(s) regressed — "
                + ", ".join(sorted(names))
            )
        return "\n".join(lines)


def _cell_key(cell: Dict[str, Any]) -> str:
    return f"{cell['size_label']}/p{cell['n_patterns']}"


def _index_cells(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Merged view per (size, patterns) key.

    A trajectory may visit the same cell from several figures, each
    contributing different baseline/kernel blocks (fig13 runs only the
    serial baselines; fig18 runs the shared kernel on the same cells),
    so the gated view is the union.  On overlap the first block wins —
    cache replays of the same cell are byte-identical anyway.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for cell in doc["cells"]:
        key = _cell_key(cell)
        if key not in out:
            merged = dict(cell)
            merged["kernels"] = dict(cell.get("kernels") or {})
            out[key] = merged
            continue
        merged = out[key]
        for bl_name in ("serial", "serial_mt"):
            if merged.get(bl_name) is None and cell.get(bl_name) is not None:
                merged[bl_name] = cell[bl_name]
        for kname, block in (cell.get("kernels") or {}).items():
            merged["kernels"].setdefault(kname, block)
    return out


def _compare_metric(
    cell: str,
    kernel: str,
    metric: str,
    base: float,
    cur: float,
    direction: int,
    threshold: float,
) -> MetricDelta:
    """Score one metric pair against its threshold."""
    if base == 0.0:
        if cur == 0.0:
            rel = 0.0
        else:
            rel = float("inf") if cur > 0 else float("-inf")
    else:
        rel = (cur - base) / abs(base)
    if abs(cur - base) <= NOISE_FLOOR:
        worsened = improved = False
    else:
        # A positive change is a regression for lower-is-better
        # metrics and an improvement for higher-is-better ones.  The
        # gate is strict (> threshold) with a 1e-9 guard so a change
        # landing exactly on the threshold never flags on float dust.
        past = abs(rel) > threshold * (1.0 + 1e-9) + 1e-12
        worsened = (rel * direction) < 0 and past
        improved = (rel * direction) > 0 and past
    return MetricDelta(
        cell=cell,
        kernel=kernel,
        metric=metric,
        baseline=base,
        current=cur,
        rel_change=rel,
        threshold=threshold,
        regressed=worsened,
        improved=improved,
    )


def _block_deltas(
    cell: str,
    kernel: str,
    base_block: Dict[str, Any],
    cur_block: Dict[str, Any],
    thresholds: Dict[str, Tuple[int, float]],
    prefix: str = "",
) -> List[MetricDelta]:
    """Compare the shared numeric fields of two stat blocks."""
    out: List[MetricDelta] = []
    for name in sorted(set(base_block) & set(cur_block)):
        base_v, cur_v = base_block[name], cur_block[name]
        if isinstance(base_v, dict) and isinstance(cur_v, dict):
            out.extend(
                _block_deltas(
                    cell, kernel, base_v, cur_v, thresholds,
                    prefix=f"{prefix}{name}.",
                )
            )
            continue
        policy = thresholds.get(prefix + name)
        if policy is None:
            continue  # not a gated metric (regime strings, counts, ...)
        if not isinstance(base_v, (int, float)) or isinstance(base_v, bool):
            continue
        if not isinstance(cur_v, (int, float)) or isinstance(cur_v, bool):
            continue
        direction, threshold = policy
        out.append(
            _compare_metric(
                cell, kernel, prefix + name,
                float(base_v), float(cur_v), direction, threshold,
            )
        )
    return out


def diff_documents(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    *,
    thresholds: Optional[Dict[str, Tuple[int, float]]] = None,
) -> PerfDiffReport:
    """Diff two bench documents; returns the full report.

    Both documents are schema-validated first; a schema-*version*
    mismatch between them is an error (see module policy).
    ``thresholds`` overrides/extends :data:`DEFAULT_THRESHOLDS` — map
    a metric name to ``(direction, relative_threshold)``.
    """
    validate_bench_document(baseline)
    validate_bench_document(current)
    if baseline.get("version") != current.get("version"):
        raise SchemaError(
            f"bench schema version mismatch: baseline "
            f"v{baseline.get('version')} vs current "
            f"v{current.get('version')}; regenerate the baseline with "
            "the current tooling before gating"
        )
    policy = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        policy.update(thresholds)

    base_cells = _index_cells(baseline)
    cur_cells = _index_cells(current)
    deltas: List[MetricDelta] = []
    for key in sorted(base_cells):
        if key not in cur_cells:
            continue
        b_cell, c_cell = base_cells[key], cur_cells[key]
        for bl_name in ("serial", "serial_mt"):
            b_bl, c_bl = b_cell.get(bl_name), c_cell.get(bl_name)
            if isinstance(b_bl, dict) and isinstance(c_bl, dict):
                deltas.extend(
                    _block_deltas(key, bl_name, b_bl, c_bl, policy)
                )
        b_kernels = b_cell.get("kernels") or {}
        c_kernels = c_cell.get("kernels") or {}
        for kname in sorted(set(b_kernels) & set(c_kernels)):
            deltas.extend(
                _block_deltas(
                    key, kname, b_kernels[kname], c_kernels[kname], policy
                )
            )
    return PerfDiffReport(
        deltas=deltas,
        missing_cells=sorted(set(base_cells) - set(cur_cells)),
        extra_cells=sorted(set(cur_cells) - set(base_cells)),
    )


def diff_files(
    baseline_path: str,
    current_path: str,
    *,
    thresholds: Optional[Dict[str, Tuple[int, float]]] = None,
) -> PerfDiffReport:
    """File-path convenience wrapper around :func:`diff_documents`.

    A file that is not an ASCII JSON document raises
    :class:`~repro.errors.SchemaError`; one that cannot be opened, the
    ``OSError``.
    """
    import json

    docs = []
    for path in (baseline_path, current_path):
        with open(path, "r", encoding="ascii") as fh:
            try:
                docs.append(json.load(fh))
            except ValueError as exc:
                raise SchemaError(f"{path}: not a JSON document: {exc}") from exc
    return diff_documents(*docs, thresholds=thresholds)
