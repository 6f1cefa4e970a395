"""Measured benchmark of the repro library: four workloads, host wall-clock.

Run from the repository root::

    python3 perf/run.py                               # every workload
    python3 perf/run.py --workload paper_gpu --seed 7 --seconds 15
    python3 perf/run.py --workload rule_churn --trace # per-layer metrics

Without ``--workload`` each workload runs in its own fresh process, so
caches start cold and peak RSS is per workload.  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every op passed its check.
``--trace`` reruns the same workload with span recorders around the
library's entry points and reports per-layer metrics instead of the
end-to-end ones; it also writes a Chrome-trace JSON (open it in
Perfetto) under ``perf/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

import numpy as np

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"

#: The modeled digest is pinned for this seed.
DEFAULT_SEED = 2013

#: Every end-to-end metric: (name, unit).  Timings are host wall-clock.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_mb", "MB"),
)

#: A traced run fails when more op time than this escapes layer spans.
MAX_UNATTRIBUTED = 0.10


def import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perf/run.py: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perf/run.py: repro resolved to {repro.__file__}, not {SRC}")
    return repro


@dataclass
class RunResult:
    """One workload run: the JSON result plus what the report prints."""

    result: dict
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    spans: Optional[list] = None


def _pins() -> dict:
    with open(PERF_DIR / "pinned.json", encoding="ascii") as fh:
        return json.load(fh)


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_dir: Optional[Path] = None,
) -> RunResult:
    """Prepare, set up, measure and check one workload in this process."""
    import tracing
    from workloads import SETUP_REPEATS, WORKLOADS, HostProbe

    workload = WORKLOADS[name](seed, smoke, seconds)
    out = RunResult(result={})
    rec = tracing.Recorder()
    if trace:
        with tracing.installed(rec):
            rec.active = True
            with rec.root("setup", "setup"):
                system = workload.setup(0)
            rec.active = False
            untraced = workload.measure(system, seconds / 2, rec, 0)
            rec.active = True
            traced = workload.measure(system, seconds / 2, rec, untraced.next_op)
            rec.active = False
        passes = [untraced, traced]
        values = tracing.layer_metrics(rec, traced, untraced, workload.states())
        units = {n: u for n, u, _, _ in tracing.LAYER_METRICS}
        out.notes = [f"-> {target}" for _, _, _, target in tracing.LAYER_METRICS]
        out.problems += tracing.check_tree(rec.spans)[:10]
        if values["trace.unattributed_ratio"] > MAX_UNATTRIBUTED:
            out.problems.append(
                f"trace.unattributed_ratio {values['trace.unattributed_ratio']:.3f}"
                f" > {MAX_UNATTRIBUTED}"
            )
        out.spans = rec.spans
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{name}-seed{seed}.trace.json"
            tracing.write_chrome_trace(rec.spans, str(path), f"perf {name}")
            out.notes.append(f"trace written to {path}")
    else:
        probe = HostProbe()
        setups, ends = [], []
        system = None
        for k in range(SETUP_REPEATS):
            system = None
            gc.collect()
            probe.sample()
            t0 = perf_counter()
            system = workload.setup(k)
            ends.append(perf_counter())
            setups.append(ends[-1] - t0)
        probe.sample()
        m = workload.measure(system, seconds, rec, 0)
        passes = [m]
        scaled_setups = [t * probe.scale_at(end) for t, end in zip(setups, ends)]
        values = {
            "setup_s": float(np.median(scaled_setups)),
            "latency_p50_ms": m.latency(0.5),
            "latency_p90_ms": m.latency(0.9),
            "ops_per_s": m.scaled_ops_per_s,
            "rss_mb": m.rss_mb,
        }
        units = dict(END_TO_END)
        n = len(m.latencies_ms)
        windows = len(set(m.latency_windows))
        out.notes = [
            f"median of {SETUP_REPEATS} set-ups; raw {np.median(setups):.4f}",
            f"n={n} in {windows} window(s); raw {m.latency(0.5, scaled=False):.3f}",
            f"n={n}; raw {m.latency(0.9, scaled=False):.3f}",
            f"raw {m.ops_per_s:.3f}",
            "median over the measured pass",
            f"host ran at {m.host_speed:.3f}x the reference speed",
        ]

    first = passes[0]
    if first.digest is not None:
        out.notes.append(f"modeled digest {first.digest}")
        pin = _pins().get(name)
        if not smoke and pin is not None and seed == pin["seed"]:
            if first.digest != pin["digest"]:
                out.problems.append(
                    f"modeled digest {first.digest} != pinned {pin['digest']}"
                )
    failed = sum(p.failed for p in passes)
    for p in passes:
        out.problems += p.problems
    out.result = {
        "correct": failed == 0 and not out.problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": _metric_block(values, units),
    }
    return out


def _report(name: str, seed: int, seconds: float, trace: bool, run: RunResult) -> None:
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    metrics = run.result["metrics"]
    for (metric, block), note in zip(metrics.items(), run.notes):
        print(f"  {metric:<36} {block['value']:>14.4f} {block['unit']:<9} {note}")
    for note in run.notes[len(metrics):]:
        print(f"  {note}")
    print(f"  attempted {run.result['attempted']}  failed {run.result['failed']}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")


def _run_all(args) -> int:
    """Each workload in a fresh process; prints one combined JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} exited {proc.returncode} without a result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, block in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = block
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    import_library()
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dictionaries and inputs, for tests",
    )
    parser.add_argument("--out", help="append one JSON line per workload run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload is None:
        return _run_all(args)

    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        trace_dir=PERF_DIR / "out",
    )
    _report(args.workload, args.seed, args.seconds, bool(args.trace), run)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "result": run.result,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    print(json.dumps(run.result))
    return 0 if run.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
