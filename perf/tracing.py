"""Span recorders for the traced benchmark run.

The library is not instrumented for this benchmark: :func:`installed`
wraps the public entry points listed in :data:`TARGETS` at run time and
restores them afterwards, so ``src/`` stays unchanged.  A wrapper
replaces every ``repro.*`` module attribute bound to the wrapped object,
because modules such as ``repro.kernels.shared_mem`` import
``scan_tiled`` by name.

A span records its name, layer, start, end, parent span, op id and
thread.  Spans opened on a worker thread with no open span of its own
take the innermost open span of the recording thread as parent, so the
slabs of a multicore scan nest under the ``scan_multicore`` call that
caused them.  Spans stay in memory until :func:`write_chrome_trace`
writes them out.  A layer's self time is a span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


class Span:
    """One timed call into a layer."""

    __slots__ = (
        "sid", "name", "layer", "parent", "op", "tid", "start", "end", "attrs",
    )

    def __init__(self, sid, name, layer, parent, op, tid, start):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.tid = tid
        self.start = start
        self.end = start
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; opens roots only while :attr:`active` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(
            next(self._ids), name, layer, parent, self.op,
            threading.get_ident(), perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def root(self, name: str, op):
        """The benchmark's own span around one op (no-op when inactive).

        Layer spans are recorded only inside a root, so the checks the
        benchmark runs between ops stay out of the trace.
        """
        if not self.active:
            yield
            return
        self.op = op
        span = self.open(name, "bench")
        try:
            yield
        finally:
            self.close(span)
            self.op = None


# -- span attributes taken from results ------------------------------------


def _tile_cells(tile) -> dict:
    """Stepped and valid lockstep cells of one yielded tile."""
    plan = tile.plan
    steps = tile.j1 - tile.j0
    remaining = plan.n - plan.starts
    valid = int(np.clip(remaining - tile.j0, 0, steps).sum())
    return {"cells": steps * int(plan.n_chunks), "valid_cells": valid}


def _multicore_attrs(result) -> dict:
    return {
        "busy_s": sum(w.seconds for w in result.worker_stats),
        "slab_s_max": max((w.seconds for w in result.worker_stats), default=0.0),
        "workers": result.workers,
        "wall_s": result.wall_seconds,
        "overlap_redundancy": result.overlap_redundancy,
    }


def _cache_get_attrs(entry) -> dict:
    return {"hit": entry is not None}


#: (module, attribute path, layer, attribute hook on the call's result).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.dfa", "DFA.build", "core.dfa", None),
    ("repro.core.compact", "CompactSTT.from_dfa", "core.compact", None),
    ("repro.core.compact", "CompactSTT.fused_tables", "core.compact", None),
    ("repro.core.dfa", "DFA.dense_fused_tables", "core.compact", None),
    ("repro.core.delta", "DeltaBuilder.full", "core.delta", None),
    ("repro.core.delta", "DeltaBuilder.apply", "core.delta", None),
    ("repro.core.tiled", "scan_tiled", "core.tiled", None),
    ("repro.core.tiled", "iter_dfa_tiles", "core.tiled", _tile_cells),
    ("repro.core.match", "MatchResult.__init__", "core.match", None),
    ("repro.core.multicore", "scan_multicore", "core.multicore", _multicore_attrs),
    ("repro.kernels.shared_mem", "measure_shared", "kernels", None),
    ("repro.kernels.shared_mem", "price_shared", "kernels", None),
    ("repro.kernels.base", "TextureLineHistogram.on_tile", "kernels", None),
    ("repro.kernels.base", "TextureClassifier.on_tile", "kernels", None),
    ("repro.gpu.device", "Device.copy_input", "gpu", None),
    ("repro.gpu.device", "Device.bind_texture", "gpu", None),
    ("repro.gpu.device", "Device.verify_texture", "gpu", None),
    ("repro.gpu.device", "Device.launch", "gpu", None),
    ("repro.matcher", "Matcher.scan", "matcher", None),
    ("repro.matcher", "Matcher.scan_many", "matcher", None),
    ("repro.matcher", "Matcher.scan_with_timing", "matcher", None),
    ("repro.serve.scheduler", "ScanScheduler.submit", "serve.scheduler", None),
    ("repro.serve.scheduler", "ScanScheduler.submit_named", "serve.scheduler", None),
    ("repro.serve.scheduler", "ScanScheduler.drain", "serve.scheduler", None),
    ("repro.serve.cache", "AutomatonCache.get", "serve.cache", _cache_get_attrs),
    ("repro.serve.cache", "AutomatonCache.get_or_build", "serve.cache", None),
    ("repro.serve.epoch", "EpochManager.register", "serve.epoch", None),
    ("repro.serve.epoch", "EpochManager.swap", "serve.epoch", None),
    ("repro.serve.epoch", "EpochManager.built_for", "serve.epoch", None),
)


def _wrap(fn, name: str, layer: str, hook, rec: Recorder):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if rec.op is None:
                yield from fn(*args, **kwargs)
                return
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = rec.open(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(span)
                    if hook is not None:
                        span.attrs = hook(item)
                    yield item
            finally:
                gen.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        span = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if hook is not None:
            span.attrs = hook(result)
        return result

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    patches = []
    try:
        for module_name, path, layer, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_wrap(raw.__func__, path, layer, hook, rec))
                else:
                    new = _wrap(raw, path, layer, hook, rec)
                patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = _wrap(orig, path, layer, hook, rec)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, new)
        yield rec
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


# -- analysis ----------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Seconds of each span not covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def check_tree(spans: List[Span]) -> List[str]:
    """Structural problems of a span forest (empty when well formed)."""
    by_id = {s.sid: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is None:
            if s.layer != "bench":
                problems.append(f"span {s.sid} {s.name} has no parent")
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.sid} {s.name} has an unknown parent")
        elif s.start < p.start or s.end > p.end:
            problems.append(f"span {s.sid} {s.name} escapes parent {p.name}")
        elif s.op != p.op:
            problems.append(f"span {s.sid} {s.name} changes op id")
    return problems


class LayerStats:
    """Self time, call counts and attributes of the spans in one scope."""

    def __init__(self, spans: List[Span], self_s: Dict[int, float]):
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.attrs: Dict[str, List[dict]] = defaultdict(list)
        for s in spans:
            t = self_s[s.sid]
            self.self_by_name[s.name] += t
            self.self_by_layer[s.layer] += t
            self.calls[s.name] += 1
            if s.attrs:
                self.attrs[s.name].append(s.attrs)

    def ms(self, *names: str) -> float:
        return 1e3 * sum(self.self_by_name.get(n, 0.0) for n in names)

    def ms_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.ms(name) / calls if calls else 0.0

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(a[key] for a in self.attrs.get(name, ())))


#: Every per-layer metric: (name, unit, better, the end-to-end metric
#: and workload it should move).  Per-op values divide by the pass's
#: ops: a bulk scan, or one served request.
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.dfa.build_ms", "ms", "lower", "setup_s, all (most on paper_gpu)"),
    ("core.dfa.states", "count", "lower", "setup_s, rss_mb"),
    ("core.compact.tables_ms", "ms", "lower", "setup_s, all (most on paper_gpu)"),
    ("core.delta.apply_ms", "ms", "lower", "latency_p90_ms, ops_per_s on rule_churn"),
    ("core.delta.reused_row_ratio", "ratio", "higher", "latency_p90_ms on rule_churn"),
    ("core.tiled.scan_ms", "ms", "lower", "latency_p50_ms on corpus_serial, paper_gpu"),
    ("core.tiled.cells_per_s", "1/s", "higher", "ops_per_s on corpus_serial, paper_gpu"),
    ("core.tiled.cell_utilization", "ratio", "higher", "ops_per_s on corpus_serial, paper_gpu"),
    ("core.match.canon_ms", "ms", "lower", "latency_p50_ms, ops_per_s on corpus_serial"),
    ("core.match.canon_calls", "count", "lower", "latency_p50_ms on corpus_serial"),
    ("core.match.matches_per_mb", "count/MB", "lower", "latency_p50_ms on corpus_serial"),
    ("core.multicore.busy_ratio", "ratio", "higher", "ops_per_s on corpus_serial"),
    ("core.multicore.slab_ms_max", "ms", "lower", "ops_per_s on corpus_serial"),
    ("core.multicore.merge_ms", "ms", "lower", "ops_per_s on corpus_serial"),
    ("core.multicore.overlap_redundancy", "ratio", "lower", "ops_per_s on corpus_serial"),
    ("kernels.measure_ms", "ms", "lower", "latency_p50_ms, ops_per_s on paper_gpu"),
    ("kernels.tex_hist_ms", "ms", "lower", "latency_p50_ms on paper_gpu"),
    ("kernels.tex_classify_ms", "ms", "lower", "latency_p50_ms on paper_gpu"),
    ("kernels.price_ms", "ms", "lower", "latency_p50_ms on paper_gpu"),
    ("kernels.segcache_hits", "count", "lower", "none: must stay 0 on paper_gpu"),
    ("kernels.modeled_gbps", "Gbps", "higher", "none: modeled GTX 285, must not drift"),
    ("gpu.copy_input_ms", "ms", "lower", "latency_p50_ms on paper_gpu, packet_serve"),
    ("gpu.verify_texture_ms", "ms", "lower", "latency_p50_ms on paper_gpu, packet_serve"),
    ("gpu.bind_texture_ms", "ms", "lower", "setup_s; latency_p90_ms on rule_churn"),
    ("gpu.launch_ms", "ms", "lower", "latency_p50_ms on paper_gpu"),
    ("matcher.scan_self_ms", "ms", "lower", "latency_p50_ms on packet_serve"),
    ("serve.submit_ms", "ms", "lower", "latency_p50_ms, ops_per_s on packet_serve"),
    ("serve.drain_ms", "ms", "lower", "latency_p50_ms, ops_per_s on packet_serve, rule_churn"),
    ("serve.batch_size_mean", "count", "lower", "latency_p50_ms on packet_serve, rule_churn"),
    ("serve.queue_wait_ms_p50", "ms", "lower", "latency_p50_ms on packet_serve, rule_churn"),
    ("serve.req_p99_ms", "ms", "lower", "none: serving tail, too noisy to gate"),
    ("serve.cache_get_ms", "ms", "lower", "latency_p50_ms, ops_per_s on packet_serve"),
    ("serve.cache_hit_ratio", "ratio", "higher", "latency_p50_ms on packet_serve"),
    ("serve.epoch.swap_ms", "ms", "lower", "latency_p90_ms, ops_per_s on rule_churn"),
    ("serve.epoch.swap_p50_ms", "ms", "lower", "latency_p90_ms, ops_per_s on rule_churn"),
    ("serve.epoch.swap_p80_ms", "ms", "lower", "latency_p90_ms on rule_churn"),
    ("serve.epoch.built_for_ms", "ms", "lower", "latency_p90_ms on rule_churn"),
    ("serve.epoch.backpressure", "count", "lower", "failed on rule_churn"),
    ("loadgen.late_ms_p50", "ms", "lower", "none: how late the open loop submitted"),
    ("loadgen.late_ms_p99", "ms", "lower", "none: how late the open loop submitted"),
    ("loadgen.goodput_ratio", "ratio", "higher", "none: share served within 100 ms of due"),
    ("process.peak_rss_mb", "MB", "lower", "none: peak includes garbage awaiting the cyclic GC"),
    ("process.host_speed", "ratio", "higher", "none: reference probe time / measured"),
    ("trace.unattributed_ratio", "ratio", "lower", "none: must stay <= 0.10"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced busy time per op"),
)


def _q(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, traced, untraced, states: int) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    *traced* and *untraced* are the workload's two measurement passes
    over fresh inputs; *states* is the size of the workload's automaton.
    """
    self_s = self_times(rec.spans)
    setup = LayerStats([s for s in rec.spans if s.op == "setup"], self_s)
    op_spans = [s for s in rec.spans if s.op not in (None, "setup")]
    ops = LayerStats(op_spans, self_s)
    everything = LayerStats(rec.spans, self_s)
    n_ops = max(traced.n_ops, 1)
    n_batches = max(traced.batches, 1)

    roots = [s for s in op_spans if s.layer == "bench"]
    root_s = sum(s.duration for s in roots)
    unattributed = sum(self_s[s.sid] for s in roots) / root_s if root_s else 0.0
    overhead = (
        (traced.busy_s / n_ops) / (untraced.busy_s / untraced.n_ops)
        if untraced.busy_s and untraced.n_ops
        else 0.0
    )

    tiled_s = ops.self_by_layer.get("core.tiled", 0.0)
    cells = ops.attr_sum("iter_dfa_tiles", "cells")
    valid_cells = ops.attr_sum("iter_dfa_tiles", "valid_cells")
    mc = ops.attrs.get("scan_multicore", [])
    mc_calls = max(len(mc), 1)
    swaps = untraced.swap_reports + traced.swap_reports
    reused = sum(r.reused_rows for r in swaps)
    rows = reused + sum(r.dirty_rows for r in swaps)
    cache_gets = ops.attrs.get("AutomatonCache.get", [])

    return {
        "core.dfa.build_ms": setup.ms("DFA.build"),
        "core.dfa.states": float(states),
        "core.compact.tables_ms": 1e3 * setup.self_by_layer.get("core.compact", 0.0),
        "core.delta.apply_ms": everything.ms_per_call("DeltaBuilder.apply"),
        "core.delta.reused_row_ratio": reused / rows if rows else 0.0,
        "core.tiled.scan_ms": 1e3 * tiled_s / n_ops,
        "core.tiled.cells_per_s": cells / tiled_s if tiled_s else 0.0,
        "core.tiled.cell_utilization": valid_cells / cells if cells else 0.0,
        "core.match.canon_ms": ops.ms("MatchResult.__init__") / n_ops,
        "core.match.canon_calls": ops.calls.get("MatchResult.__init__", 0) / n_ops,
        "core.match.matches_per_mb": (
            untraced.matches / (untraced.bytes / 1e6) if untraced.bytes else 0.0
        ),
        "core.multicore.busy_ratio": (
            sum(a["busy_s"] / (a["workers"] * a["wall_s"]) for a in mc) / mc_calls
        ),
        "core.multicore.slab_ms_max": 1e3 * sum(a["slab_s_max"] for a in mc) / mc_calls,
        "core.multicore.merge_ms": ops.ms_per_call("scan_multicore"),
        "core.multicore.overlap_redundancy": (
            sum(a["overlap_redundancy"] for a in mc) / mc_calls
        ),
        "kernels.measure_ms": ops.ms("measure_shared") / n_ops,
        "kernels.tex_hist_ms": ops.ms("TextureLineHistogram.on_tile") / n_ops,
        "kernels.tex_classify_ms": ops.ms("TextureClassifier.on_tile") / n_ops,
        "kernels.price_ms": ops.ms("price_shared") / n_ops,
        "kernels.segcache_hits": float(untraced.segcache_hits + traced.segcache_hits),
        "kernels.modeled_gbps": untraced.modeled_gbps,
        "gpu.copy_input_ms": ops.ms("Device.copy_input") / n_ops,
        "gpu.verify_texture_ms": ops.ms("Device.verify_texture") / n_ops,
        "gpu.bind_texture_ms": everything.ms_per_call("Device.bind_texture"),
        "gpu.launch_ms": ops.ms("Device.launch") / n_ops,
        "matcher.scan_self_ms": (
            ops.ms("Matcher.scan", "Matcher.scan_many", "Matcher.scan_with_timing")
            / n_ops
        ),
        "serve.submit_ms": (
            ops.ms("ScanScheduler.submit", "ScanScheduler.submit_named") / n_ops
        ),
        "serve.drain_ms": ops.ms("ScanScheduler.drain") / n_batches,
        "serve.batch_size_mean": (
            untraced.n_ops / untraced.batches if untraced.batches else 0.0
        ),
        "serve.queue_wait_ms_p50": _q(untraced.queue_wait_ms, 0.5),
        "serve.req_p99_ms": untraced.latency(0.99, scaled=False) if untraced.serving else 0.0,
        "serve.cache_get_ms": ops.ms("AutomatonCache.get") / n_batches,
        "serve.cache_hit_ratio": (
            sum(a["hit"] for a in cache_gets) / len(cache_gets) if cache_gets else 0.0
        ),
        "serve.epoch.swap_ms": everything.ms_per_call("EpochManager.swap"),
        "serve.epoch.swap_p50_ms": _q(untraced.swap_ms, 0.5),
        "serve.epoch.swap_p80_ms": _q(untraced.swap_ms, 0.8),
        "serve.epoch.built_for_ms": everything.ms_per_call("EpochManager.built_for"),
        "serve.epoch.backpressure": float(untraced.backpressure + traced.backpressure),
        "loadgen.late_ms_p50": _q(untraced.late_ms, 0.5),
        "loadgen.late_ms_p99": _q(untraced.late_ms, 0.99),
        "loadgen.goodput_ratio": (
            float(np.mean(np.asarray(untraced.latencies_ms) <= 100.0))
            if untraced.serving and untraced.latencies_ms
            else 0.0
        ),
        "process.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "process.host_speed": untraced.host_speed,
        "trace.unattributed_ratio": unattributed,
        "trace.overhead_ratio": overhead,
    }


def write_chrome_trace(spans: List[Span], path: str, label: str) -> None:
    """Write *spans* as Trace Event Format JSON (Perfetto, chrome://tracing)."""
    origin = min((s.start for s in spans), default=0.0)
    tids: Dict[int, int] = {}
    events = [{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": label}}]
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.tid, len(tids) + 1)
        args = {"op": s.op, "sid": s.sid, "parent": s.parent}
        if s.attrs:
            args.update(s.attrs)
        events.append(
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
