"""Command-line interface: regenerate paper figures and inspect the model.

Examples
--------
Regenerate Fig. 18 (shared-memory throughput) on the full paper grid::

    repro-ac fig18

Faster, smaller grid with CSV output::

    repro-ac fig22 --sizes 1MB,10MB --patterns 100,1000 --csv

Calibration / shape-check report::

    repro-ac calibrate

Device summary and a one-off match::

    repro-ac device
    repro-ac match --patterns-file dict.txt --text-file input.bin
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.calibrate import calibration_report
from repro.bench.experiments import ABLATIONS, FIGURES, run_figure
from repro.bench.runner import ExperimentRunner
from repro.compress.backend import DEFAULT_BACKEND, STT_BACKENDS
from repro.gpu.config import gtx285
from repro.workload.datasets import PAPER_PATTERN_COUNTS, PAPER_SIZES


def _parse_sizes(value: Optional[str]) -> List[str]:
    if not value:
        return list(PAPER_SIZES)
    return [s.strip() for s in value.split(",") if s.strip()]


def _parse_counts(value: Optional[str]) -> List[int]:
    if not value:
        return list(PAPER_PATTERN_COUNTS)
    return [int(s) for s in value.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The repro-ac argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-ac",
        description=(
            "Reproduction of 'High Throughput Parallel Implementation of "
            "Aho-Corasick Algorithm on a GPU' (IPPS 2013)"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    fig_ids = sorted(FIGURES) + sorted(ABLATIONS)
    for fid in fig_ids:
        spec = (FIGURES | ABLATIONS)[fid]
        fp = sub.add_parser(fid, help=spec.title)
        fp.add_argument("--sizes", help="comma list, e.g. 1MB,10MB")
        fp.add_argument("--patterns", help="comma list, e.g. 100,1000")
        fp.add_argument(
            "--scale", type=float, default=0.01,
            help="functional-simulation scale (default 0.01)",
        )
        fp.add_argument("--seed", type=int, default=2013)
        fp.add_argument("--csv", action="store_true", help="CSV output")
        fp.add_argument(
            "--chart", action="store_true", help="ASCII bar charts"
        )

    cal = sub.add_parser("calibrate", help="paper-vs-model band report")
    cal.add_argument("--scale", type=float, default=0.01)
    cal.add_argument("--seed", type=int, default=2013)

    sub.add_parser("device", help="print the simulated device parameters")

    val = sub.add_parser(
        "validate",
        help="cross-validate the analytic timing model against the "
        "discrete-event SIMT scheduler",
    )
    val.add_argument("--iters", type=int, default=400)

    occ = sub.add_parser(
        "occupancy", help="sweep shared-kernel launch geometries"
    )
    occ.add_argument("--patterns", type=int, default=1000)
    occ.add_argument("--size", default="10MB")
    occ.add_argument("--scale", type=float, default=0.01)

    comp = sub.add_parser(
        "compress", help="STT compression report (banded + bitmap)"
    )
    comp.add_argument("--patterns", type=int, default=1000)

    dot = sub.add_parser(
        "dot", help="emit a Graphviz rendering of an automaton"
    )
    dot.add_argument("--patterns-file", required=True)
    dot.add_argument("--no-failure-edges", action="store_true")

    exp = sub.add_parser(
        "export", help="write every results figure to CSV files"
    )
    exp.add_argument("--outdir", required=True)
    exp.add_argument("--scale", type=float, default=0.01)
    exp.add_argument("--seed", type=int, default=2013)
    exp.add_argument("--sizes", help="comma list, e.g. 1MB,10MB")
    exp.add_argument("--patterns", help="comma list, e.g. 100,1000")

    m = sub.add_parser("match", help="run the shared kernel on your own data")
    m.add_argument("--patterns-file", required=True,
                   help="one pattern per line")
    m.add_argument("--text-file", required=True, help="input bytes")
    m.add_argument("--kernel", default="shared",
                   choices=["shared", "global", "pfac"])
    m.add_argument(
        "--tile-len", type=int, default=None,
        help="step-tile size for the tiled engine (shared/global; "
        "default 256 — results are identical for any value)",
    )
    m.add_argument(
        "--stt-backend", default=DEFAULT_BACKEND, choices=STT_BACKENDS,
        help="STT storage backend the kernel gathers through (default: "
        "compact; matches are byte-identical for every choice, only "
        "the modeled memory footprint and per-fetch cost differ)",
    )
    m.add_argument(
        "--resilient", action="store_true",
        help="scan through the resilient pipeline (retry + backend "
        "fallback) and print its health report",
    )
    m.add_argument(
        "--chain", default="gpu,double_array,serial",
        help="resilient fallback chain, comma list (default "
        "gpu,double_array,serial)",
    )
    m.add_argument(
        "--retries", type=int, default=2,
        help="retries per backend for transient faults (default 2)",
    )
    m.add_argument(
        "--backoff-jitter", type=float, default=0.0,
        help="backoff jitter fraction in [0, 1]: each retry sleep is "
        "scaled by a draw from U[1-j, 1] (default 0 = no jitter)",
    )
    m.add_argument(
        "--backoff-seed", type=int, default=0,
        help="seed for the jitter stream, so jittered runs replay "
        "bit-identically (default 0)",
    )
    m.add_argument(
        "--backoff-max", type=float, default=1.0,
        help="cap on a single backoff sleep in seconds (default 1.0)",
    )
    m.add_argument(
        "--inject", default=None,
        help="comma list of fault kinds to inject (testing aid), e.g. "
        "stt_bitflip,launch_failure; see 'repro-ac campaign' for kinds",
    )
    m.add_argument(
        "--inject-seed", type=int, default=0,
        help="seed for injected fault payloads (default 0)",
    )
    m.add_argument(
        "--inject-persistent", action="store_true",
        help="make injected faults survive retries (forces fallbacks)",
    )
    m.add_argument(
        "--trace", action="store_true",
        help="record the scan through the tracing layer and print the "
        "span tree (build, copy_input, bind_texture, kernel_body, ...)",
    )

    st = sub.add_parser(
        "stats",
        help="scan your data and emit the metrics registry (JSON and/or "
        "Prometheus text exposition)",
    )
    st.add_argument("--patterns-file", required=True,
                    help="one pattern per line")
    st.add_argument("--text-file", required=True, help="input bytes")
    st.add_argument("--backend", default="gpu",
                    choices=["gpu", "double_array", "serial", "serial_mt"])
    st.add_argument(
        "--workers", type=int, default=0,
        help="thread count for --backend serial_mt (0 = one per core)",
    )
    st.add_argument("--case-insensitive", action="store_true")
    st.add_argument(
        "--format", default="both", choices=["json", "prometheus", "both"],
        help="export format (default both)",
    )
    st.add_argument(
        "--resilient", action="store_true",
        help="scan through the resilient pipeline so retry/fallback "
        "counters are exercised",
    )

    be = sub.add_parser(
        "bench",
        help="run benchmark smoke cells with a collector attached and "
        "write a schema-validated BENCH_*.json trajectory",
    )
    be.add_argument(
        "--figures", default="fig13,fig18",
        help="comma list of figure ids to smoke (default fig13,fig18)",
    )
    be.add_argument("--sizes", default="1MB", help="comma list (default 1MB)")
    be.add_argument("--patterns", default="100,1000",
                    help="comma list (default 100,1000)")
    be.add_argument("--scale", type=float, default=0.005)
    be.add_argument("--seed", type=int, default=2013)
    be.add_argument(
        "--stt-backend", default=DEFAULT_BACKEND, choices=STT_BACKENDS,
        help="STT storage backend for every GPU kernel cell (default: "
        "compact)",
    )
    be.add_argument(
        "--tile-len", type=int, default=None,
        help="step-tile size for the tiled engine (default 256 — "
        "results are identical for any value)",
    )
    be.add_argument(
        "--workers", type=int, default=1,
        help="process count to fan grid cells across (default 1 = "
        "in-process; results are byte-identical for any count)",
    )
    be.add_argument(
        "--cache-dir", default=None,
        help="directory for content-keyed on-disk cell caching (fresh "
        "cells are always written through when set)",
    )
    be.add_argument(
        "--resume", action="store_true",
        help="with --cache-dir: load completed cells from the cache "
        "instead of recomputing, so an interrupted grid restarts "
        "where it left off",
    )
    be.add_argument(
        "--out", default="BENCH_smoke.json",
        help="output path for the cell trajectory (default BENCH_smoke.json)",
    )

    cpb = sub.add_parser(
        "compressbench",
        help="memory-vs-throughput trade-off of the compressed STT "
        "backends over synthetic snort-style rule sets; writes "
        "schema-validated bench cells and gates on a minimum "
        "compression ratio",
    )
    cpb.add_argument(
        "--patterns", default="5000,20000,50000",
        help="comma list of rule-set sizes (default 5000,20000,50000)",
    )
    cpb.add_argument(
        "--backends", default="compact,banded,bitmap",
        help="comma list of STT backends to sweep "
        "(default compact,banded,bitmap)",
    )
    cpb.add_argument("--scale", type=float, default=0.005)
    cpb.add_argument("--seed", type=int, default=2013)
    cpb.add_argument(
        "--size", default="1MB",
        help="input size label for the throughput cells (default 1MB)",
    )
    cpb.add_argument(
        "--min-ratio", type=float, default=4.0,
        help="acceptance gate: the best compressed backend at the "
        "largest rule-set size must shrink the STT by this factor "
        "(default 4.0; 0 disables)",
    )
    cpb.add_argument(
        "--gate-patterns", type=int, default=20000,
        help="rule-set size the --min-ratio gate applies to "
        "(default 20000)",
    )
    cpb.add_argument(
        "--out", default=None,
        help="write the sweep as schema-validated bench cells "
        "(BENCH_*.json) to this path",
    )
    cpb.add_argument(
        "--tile-len", type=int, default=None,
        help="step-tile size for the tiled engine (default 256 — "
        "results are identical for any value)",
    )
    cpb.add_argument(
        "--workers", type=int, default=1,
        help="process count to fan trade-off cells across (default 1 "
        "= in-process; results are byte-identical for any count)",
    )

    cb = sub.add_parser(
        "cpubench",
        help="wall-clock-measure the real multicore CPU matcher "
        "(scan_multicore) against the single-threaded scan on a bench "
        "cell, report measured-vs-modeled speedup, and optionally gate "
        "on a minimum measured speedup",
    )
    cb.add_argument("--size", default="100MB",
                    help="cell size label (default 100MB)")
    cb.add_argument("--patterns", type=int, default=1000,
                    help="dictionary size (default 1000)")
    cb.add_argument("--workers", type=int, default=0,
                    help="thread count (0 = one per host core)")
    cb.add_argument("--repeats", type=int, default=3,
                    help="timing repeats, min taken (default 3)")
    cb.add_argument(
        "--scale", type=float, default=0.16,
        help="sim scale: scanned bytes = size x scale (default "
        "100MB x 0.16 = the 16 MB bench cell the perf gate uses)",
    )
    cb.add_argument("--seed", type=int, default=2013)
    cb.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit 1 if the measured multicore speedup is below this "
        "(the CI cpu-baseline job passes 2.0; default 0 = report only)",
    )
    cb.add_argument(
        "--tile-len", type=int, default=None,
        help="step-tile size for the tiled engine in both measured "
        "legs (default 256 — matches are identical for any value)",
    )

    ps = sub.add_parser(
        "paperscale",
        help="run the paper's largest grid cell (200MB x 20k patterns) "
        "through every kernel under a wall-clock budget and write "
        "schema-validated bench cells with runner wall-clock metadata",
    )
    ps.add_argument("--size", default="200MB",
                    help="cell size label (default 200MB)")
    ps.add_argument("--patterns", type=int, default=20000,
                    help="dictionary size (default 20000)")
    ps.add_argument(
        "--kernels", default="serial,serial_mt,global,shared,pfac",
        help="comma list of kernels/baselines to run "
        "(default serial,serial_mt,global,shared,pfac)",
    )
    ps.add_argument(
        "--scale", type=float, default=0.16,
        help="sim scale: scanned bytes = size x scale (default 0.16, "
        "the perf-gate geometry: 200MB x 0.16 = a 32 MB sim cell)",
    )
    ps.add_argument("--seed", type=int, default=2013)
    ps.add_argument(
        "--stt-backend", default=DEFAULT_BACKEND, choices=STT_BACKENDS,
        help="STT storage backend for every GPU kernel (default compact)",
    )
    ps.add_argument("--tile-len", type=int, default=None,
                    help="step-tile size for the tiled engine")
    ps.add_argument(
        "--workers", type=int, default=1,
        help="process count to fan cells across (default 1)",
    )
    ps.add_argument(
        "--cache-dir", default=None,
        help="directory for content-keyed on-disk cell caching",
    )
    ps.add_argument(
        "--resume", action="store_true",
        help="with --cache-dir: restart from completed cells",
    )
    ps.add_argument(
        "--budget-seconds", type=float, default=900.0,
        help="exit 1 if the grid's wall-clock exceeds this "
        "(default 900; 0 disables)",
    )
    ps.add_argument(
        "--out", default="BENCH_paperscale.json",
        help="output path (default BENCH_paperscale.json)",
    )

    prof = sub.add_parser(
        "profile",
        help="run one kernel under the hardware-counter profiler and "
        "report the per-launch ProfileReport (text, JSON, or a "
        "Perfetto-loadable trace.json)",
    )
    prof.add_argument(
        "--kernel", default="shared_mem",
        choices=["shared_mem", "global_only", "pfac", "multi_gpu"],
    )
    prof.add_argument(
        "--scheme", default="diagonal",
        choices=["diagonal", "coalesce_only", "naive", "transposed"],
        help="shared-memory store scheme (shared_mem/multi_gpu only; "
        "default diagonal)",
    )
    prof.add_argument("--size", default="1MB",
                      help="synthetic input size label (default 1MB)")
    prof.add_argument("--patterns", type=int, default=1000,
                      help="synthetic dictionary size (default 1000)")
    prof.add_argument("--scale", type=float, default=0.01)
    prof.add_argument("--seed", type=int, default=2013)
    prof.add_argument(
        "--patterns-file", default=None,
        help="profile your own dictionary instead (one pattern per line; "
        "requires --text-file)",
    )
    prof.add_argument("--text-file", default=None,
                      help="input bytes for --patterns-file mode")
    prof.add_argument(
        "--devices", type=int, default=2,
        help="simulated device count for --kernel multi_gpu (default 2)",
    )
    prof.add_argument(
        "--tile-len", type=int, default=None,
        help="step-tile size for the tiled engine (shared_mem/"
        "global_only; default 256 — results are identical for any value)",
    )
    prof.add_argument(
        "--format", default="text", choices=["text", "json", "trace"],
        help="text report, JSON reports, or Chrome-trace export "
        "(default text)",
    )
    prof.add_argument(
        "--out", default="trace.json",
        help="output path for --format trace (default trace.json)",
    )

    pd = sub.add_parser(
        "perfdiff",
        help="diff two BENCH_*.json documents with noise-aware "
        "thresholds; exit 1 if any metric regressed",
    )
    pd.add_argument("baseline", help="baseline BENCH_*.json path")
    pd.add_argument("current", help="current BENCH_*.json path")
    pd.add_argument(
        "--threshold", action="append", default=[],
        metavar="METRIC=FRAC",
        help="override a relative threshold, e.g. --threshold gbps=0.2 "
        "or --threshold counters.achieved_gbps=0.05 (repeatable; the "
        "metric's better-direction is kept)",
    )

    sv = sub.add_parser(
        "serve",
        help="batched scan serving: sweep the pipelined scheduler vs the "
        "per-request loop, optionally with a demo walkthrough",
    )
    sv.add_argument(
        "--demo", action="store_true",
        help="also run a narrated scheduler demo (mixed dictionaries, "
        "cache hits, bind reuse, per-batch pipeline timings)",
    )
    sv.add_argument(
        "--batch-sizes", default="1,2,4,8,16",
        help="comma list of batch sizes to sweep (default 1,2,4,8,16)",
    )
    sv.add_argument("--patterns", type=int, default=100,
                    help="dictionary size (default 100)")
    sv.add_argument("--text-bytes", type=int, default=4096,
                    help="bytes per request (default 4096)")
    sv.add_argument("--seed", type=int, default=2013)
    sv.add_argument(
        "--out", default=None,
        help="write the sweep as schema-validated bench cells "
        "(BENCH_*.json) to this path",
    )
    sv.add_argument(
        "--trace-out", default=None,
        help="write a Perfetto-loadable trace of the demo's scheduler "
        "spans (requires --demo)",
    )

    camp = sub.add_parser(
        "campaign",
        help="run the fault-injection campaign against the serial oracle",
    )
    camp.add_argument(
        "--trials", type=int, default=40,
        help="seeded trials per fault class (default 40)",
    )
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument(
        "--kinds", default=None,
        help="comma list of fault kinds (default: all)",
    )
    camp.add_argument(
        "--retries", type=int, default=2,
        help="retries per backend inside each trial (default 2)",
    )
    camp.add_argument(
        "--swap", action="store_true",
        help="run only the mid-swap fault classes (delta_corrupt, "
        "swap_stt_mismatch, rebuild_timeout) through the epoch-swap "
        "chaos harness",
    )
    camp.add_argument(
        "--backoff-jitter", type=float, default=0.0,
        help="backoff jitter fraction in [0, 1] for trial pipelines "
        "(default 0)",
    )
    camp.add_argument(
        "--backoff-seed", type=int, default=0,
        help="seed for the jitter stream; replays are bit-reproducible "
        "(default 0)",
    )
    camp.add_argument(
        "--backoff-max", type=float, default=1.0,
        help="cap on a single (recorded, never slept) backoff in "
        "seconds (default 1.0)",
    )

    hs = sub.add_parser(
        "hotswap",
        help="zero-downtime rule reload: narrated epoch-swap demo plus "
        "the rebuild-vs-churn and swap-throughput-dip benchmarks",
    )
    hs.add_argument(
        "--demo", action="store_true",
        help="narrate a register -> delta swap -> fault abort -> "
        "rollback sequence with in-flight requests pinned to their "
        "admitted versions",
    )
    hs.add_argument(
        "--patterns", type=int, default=2000,
        help="dictionary size for the dip family (default 2000)",
    )
    hs.add_argument(
        "--rebuild-patterns", type=int, default=20000,
        help="dictionary size for the rebuild family (default 20000, "
        "the acceptance scale)",
    )
    hs.add_argument(
        "--churns", default="0.001,0.005,0.01,0.05",
        help="comma list of churn fractions for the rebuild family",
    )
    hs.add_argument(
        "--batch-sizes", default="4,8,16",
        help="comma list of batch sizes for the dip family",
    )
    hs.add_argument(
        "--repeats", type=int, default=3,
        help="wall-clock repeats per rebuild cell, min taken (default 3)",
    )
    hs.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="acceptance bar: delta builds at <= 1%% churn must beat "
        "full rebuilds by this factor (default 5.0; 0 disables)",
    )
    hs.add_argument(
        "--skip-rebuild", action="store_true",
        help="skip the wall-clock rebuild family (CI smoke runs only "
        "the deterministic dip cells)",
    )
    hs.add_argument("--seed", type=int, default=2013)
    hs.add_argument(
        "--out", default=None,
        help="write the dip family as schema-validated bench cells "
        "(BENCH_*.json) to this path",
    )

    slo = sub.add_parser(
        "slo",
        help="serving SLO dashboard: per-tenant latency quantiles, "
        "queue-wait vs pipeline decomposition, and burn-rate alerting "
        "over a seeded multi-tenant run",
    )
    slo.add_argument(
        "--demo", action="store_true",
        help="narrate the seeded burn episode (steady -> burst -> "
        "recovery; the victim's alert fires and clears "
        "deterministically)",
    )
    slo.add_argument(
        "--statusz", action="store_true",
        help="also print the joined statusz health snapshot "
        "(queue / cache / fallbacks / slo burn state) as JSON",
    )
    slo.add_argument(
        "--events", action="store_true",
        help="also print the structured event log (JSONL)",
    )
    slo.add_argument("--seed", type=int, default=2013)
    slo.add_argument(
        "--burst-factor", type=int, default=5,
        help="victim load multiplier during burst windows (default 5)",
    )
    slo.add_argument(
        "--text-bytes", type=int, default=512,
        help="bytes per request payload (default 512)",
    )
    slo.add_argument(
        "--out", default=None,
        help="write the per-tenant slo_* / slodip_* families as "
        "schema-validated bench cells (BENCH_*.json) to this path",
    )
    return p


def _cmd_figure(fid: str, args) -> int:
    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    table = run_figure(
        fid, runner, _parse_sizes(args.sizes), _parse_counts(args.patterns)
    )
    if args.csv:
        print(table.to_csv())
    elif getattr(args, "chart", False):
        from repro.analysis import figure_chart, trend_summary

        print(figure_chart(table))
        print()
        print(trend_summary(table))
    else:
        print(table.render())
    return 0


def _cmd_validate(args) -> int:
    from repro.gpu.validate import run_validation, validation_report

    print(validation_report(run_validation(iters=args.iters)))
    return 0


def _cmd_occupancy(args) -> int:
    from repro.analysis import best_geometry, explore
    from repro.workload.datasets import DatasetFactory
    from repro.core import DFA

    factory = DatasetFactory(scale=args.scale)
    cell = factory.cell(args.size, args.patterns)
    dfa = DFA.build(cell.patterns)
    reports = explore(dfa, cell.data)
    for r in reports:
        print(r.describe())
    best = best_geometry(reports)
    print(
        f"\nbest: {best.threads_per_block} threads x {best.chunk_bytes} B "
        f"chunks ({best.gbps:.1f} Gbps)"
    )
    return 0


def _cmd_compress(args) -> int:
    from repro.compress import BandedSTT, BitmapDeltaSTT
    from repro.core import AhoCorasickAutomaton, DFA
    from repro.workload.datasets import DatasetFactory

    factory = DatasetFactory(scale=0.01)
    patterns = factory.patterns_for(args.patterns)
    ac = AhoCorasickAutomaton.build(patterns)
    dfa = DFA.from_automaton(ac)
    banded = BandedSTT.from_stt(dfa.stt)
    bitmap = BitmapDeltaSTT.from_automaton(ac)
    bs, ms = banded.stats(), bitmap.stats()
    print(f"{args.patterns} patterns, {dfa.n_states} states")
    print(f"dense STT : {bs.dense_bytes / 2**20:8.2f} MiB")
    print(f"banded    : {bs.compressed_bytes / 2**20:8.2f} MiB "
          f"({bs.ratio:5.1f}x)")
    print(f"bitmap    : {ms.compressed_bytes / 2**20:8.2f} MiB "
          f"({ms.ratio:5.1f}x)")
    print(f"banded exact: {banded.verify_against(dfa.stt)}")
    print(f"bitmap exact: {bitmap.verify_against(dfa, sample=1000)}")
    return 0


def _cmd_export(args) -> int:
    import os

    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    sizes = _parse_sizes(args.sizes)
    counts = _parse_counts(args.patterns)
    os.makedirs(args.outdir, exist_ok=True)
    for fid in sorted(FIGURES):
        table = run_figure(fid, runner, sizes, counts)
        path = os.path.join(args.outdir, f"{fid}.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(table.to_csv() + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_dot(args) -> int:
    from repro.core import AhoCorasickAutomaton, PatternSet
    from repro.core.visualize import to_dot

    with open(args.patterns_file, "r", encoding="latin-1") as fh:
        patterns = [line.rstrip("\n") for line in fh if line.strip()]
    ac = AhoCorasickAutomaton.build(PatternSet.from_strings(patterns))
    print(to_dot(ac, include_failure_edges=not args.no_failure_edges))
    return 0


def _cmd_match_resilient(args, patterns, text) -> int:
    from repro.core import PatternSet
    from repro.errors import ReproError
    from repro.resilience import (
        FaultInjector,
        FaultKind,
        FaultPlan,
        Fault,
        ResilientMatcher,
    )

    injector = None
    if args.inject:
        try:
            faults = [
                Fault(
                    kind=FaultKind(tok.strip()),
                    seed=args.inject_seed,
                    persistent=args.inject_persistent,
                )
                for tok in args.inject.split(",")
                if tok.strip()
            ]
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            print(f"error: unknown fault kind in --inject {args.inject!r}; "
                  f"valid kinds: {valid}")
            return 2
        injector = FaultInjector(FaultPlan(faults))
    chain = tuple(s.strip() for s in args.chain.split(",") if s.strip())
    tracer = None
    if getattr(args, "trace", False):
        from repro.obs import Tracer

        tracer = Tracer()
    try:
        rm = ResilientMatcher(
            PatternSet.from_strings(patterns),
            chain=chain,
            max_retries=args.retries,
            backoff_cap=args.backoff_max,
            backoff_jitter=args.backoff_jitter,
            backoff_seed=args.backoff_seed,
            injector=injector,
            tracer=tracer,
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    try:
        result, health = rm.scan_with_health(text)
    except Exception as exc:
        print(f"scan failed: {type(exc).__name__}: {exc}")
        if rm.last_health is not None:
            print()
            print(rm.last_health.render())
        if tracer is not None:
            print()
            print(tracer.render())
        return 1
    print(f"matches       : {len(result)}")
    for m in list(result)[:10]:
        print(f"  end={m.end} pattern={m.pattern_id}")
    if len(result) > 10:
        print(f"  ... {len(result) - 10} more")
    print()
    print(health.render())
    if tracer is not None:
        print()
        print(tracer.render())
    return 0


def _cmd_serve(args) -> int:
    from repro.bench.serve_bench import ServeBenchmark, render_sweep
    from repro.obs import BenchCollector, Metrics, Tracer

    try:
        batch_sizes = [
            int(s) for s in args.batch_sizes.split(",") if s.strip()
        ]
    except ValueError:
        print(f"error: --batch-sizes expects a comma list of ints, got "
              f"{args.batch_sizes!r}")
        return 2
    if not batch_sizes or any(b < 1 for b in batch_sizes):
        print("error: --batch-sizes needs at least one size >= 1")
        return 2
    if args.trace_out and not args.demo:
        print("error: --trace-out requires --demo")
        return 2

    if args.demo:
        from repro.serve import ScanScheduler

        tracer = Tracer()
        metrics = Metrics()
        sched = ScanScheduler(
            max_batch=8, tracer=tracer, metrics=metrics
        )
        ids = ["he", "she", "his", "hers"]
        av = ["virus", "worm", "trojan"]
        print("demo: two dictionaries, six requests, two drains")
        for pats, text in [
            (ids, "ushers in the house"),
            (ids, "she sells seashells"),
            (av, "a worm and a trojan walk into a bar"),
            (ids, "hishers"),
        ]:
            sched.submit(pats, text)
        sched.drain()
        for pats, text in [(ids, "hers truly"), (av, "no virus here")]:
            sched.submit(pats, text)
        sched.drain()
        for r in sched.reports:
            t = r.timing
            pipeline = (
                f" makespan={t.makespan_seconds * 1e6:.2f}us "
                f"saved={t.overlap_saved_seconds * 1e9:.0f}ns"
                if t is not None
                else ""
            )
            print(
                f"  batch digest={r.digest[:12]} n={r.n_requests} "
                f"cache_hit={r.cache_hit} bind_skipped={r.bind_skipped}"
                f"{pipeline}"
            )
        s = sched.summary()
        print(
            f"  cache: {s['cache_hits']} hits / {s['cache_misses']} misses"
            f"; overlap saved {s['overlap_saved_seconds'] * 1e9:.0f} ns "
            "total"
        )
        digests = ", ".join(
            f"{d}x{n}" for d, n in s["batches_by_digest"].items()
        )
        qw = s["queue_wait"]
        print(
            f"  batches per digest: {digests}; queue wait p50="
            f"{qw['p50'] * 1e6:.2f}us p99={qw['p99'] * 1e6:.2f}us "
            f"over {qw['count']} requests"
        )
        if args.trace_out:
            from repro.obs import write_chrome_trace

            doc = write_chrome_trace(tracer, args.trace_out)
            print(f"  wrote {args.trace_out} "
                  f"({len(doc['traceEvents'])} trace events)")
        print()

    collector = BenchCollector(label="serve") if args.out else None
    bench = ServeBenchmark(
        seed=args.seed,
        n_patterns=args.patterns,
        text_bytes=args.text_bytes,
        collector=collector,
    )
    cells = bench.run(batch_sizes)
    print(render_sweep(cells))
    if collector is not None:
        collector.write_json(args.out)
        print(f"wrote {args.out} ({len(cells)} batch cells)")
    worst = min(
        (c.speedup for c in cells if c.batch_size >= 8), default=None
    )
    if worst is not None and worst < 1.5:
        print(f"FAIL: scheduler speedup {worst:.2f}x < 1.5x at batch >= 8")
        return 1
    return 0


def _cmd_slo(args) -> int:
    from repro.bench.slo_bench import SloBenchmark, render_dashboard
    from repro.errors import ExperimentError
    from repro.obs import BenchCollector

    if args.burst_factor < 2:
        print("error: --burst-factor must be >= 2 (no burst, no episode)")
        return 2
    collector = BenchCollector(label="slo") if args.out else None
    bench = SloBenchmark(
        seed=args.seed,
        burst_factor=args.burst_factor,
        text_bytes=args.text_bytes,
        collector=collector,
    )
    if args.demo:
        print(
            "demo: 3 tenants on one scheduler, seeded manual-clock "
            "timeline"
        )
        print(
            f"  steady {bench.steady_windows} windows -> burst "
            f"{bench.burst_windows} windows ({bench.tenants[0].name} at "
            f"{args.burst_factor}x load) -> recovery "
            f"{bench.recovery_windows} windows"
        )
        p99 = bench.policy.objective("request_p99")
        print(
            f"  objectives: p99 {p99.metric} <= "
            f"{p99.threshold * 1e6:.0f}us (budget "
            f"{p99.budget_fraction:.0%}), burn fires >= "
            f"{bench.policy.burn.fire_burn}x fast+slow, clears < "
            f"{bench.policy.burn.clear_burn}x\n"
        )
    try:
        report = bench.run()
    except ExperimentError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(render_dashboard(report))
    if args.events:
        print("\nevent log:")
        print(report.events_jsonl.rstrip("\n"))
    if args.statusz:
        import json as _json

        print("\nstatusz:")
        print(_json.dumps(report.status, indent=2, default=str))
    if collector is not None:
        collector.write_json(args.out)
        print(f"\nwrote {args.out} ({len(collector.records)} slo cells)")
    if report.breached:
        print("FAIL: SLO breached at end of run")
        return 1
    return 0


def _cmd_campaign(args) -> int:
    from repro.resilience import SWAP_FAULT_KINDS, FaultKind, run_campaign

    if args.trials < 1:
        print("error: --trials must be >= 1 (a 0-trial campaign would "
              "hold its invariant vacuously)")
        return 2
    if args.swap and args.kinds:
        print("error: --swap and --kinds are mutually exclusive")
        return 2
    kinds = None
    if args.swap:
        kinds = list(SWAP_FAULT_KINDS)
    elif args.kinds:
        try:
            kinds = [FaultKind(tok.strip()) for tok in args.kinds.split(",")
                     if tok.strip()]
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            print(f"error: unknown fault kind in --kinds {args.kinds!r}; "
                  f"valid kinds: {valid}")
            return 2
    report = run_campaign(
        kinds=kinds,
        trials_per_kind=args.trials,
        seed=args.seed,
        max_retries=args.retries,
        backoff_jitter=args.backoff_jitter,
        backoff_seed=args.backoff_seed,
        backoff_max=args.backoff_max,
    )
    print(report.render())
    return 0 if report.ok else 1


def _hotswap_demo() -> None:
    from repro.core.delta import PatternDelta
    from repro.errors import ReproError
    from repro.resilience import Fault, FaultInjector, FaultKind, FaultPlan
    from repro.serve import EpochManager, ScanScheduler

    print("demo: register -> delta swap -> fault abort -> rollback")
    injector = FaultInjector(
        FaultPlan([Fault(kind=FaultKind.DELTA_CORRUPT, trigger=2)])
    )
    mgr = EpochManager(injector=injector)
    sched = ScanScheduler(epochs=mgr)
    mgr.register("ids", ["he", "she", "his", "hers"])
    t1 = sched.submit_named("ids", "ushers in the house")
    print(f"  v1 active; request admitted under v{t1.request.lease.epoch.version}")

    report = mgr.swap("ids", PatternDelta.from_strings(added=["usher"]))
    print(f"  {report.describe()}")
    t2 = sched.submit_named("ids", "ushers in the house")
    print(
        f"  overlap={mgr.epoch_overlap('ids')} (v1 pinned by in-flight "
        f"request, v2 serving new admissions)"
    )

    sched.drain()
    print(
        f"  drained: v1 request saw {len(t1.result())} matches, "
        f"v2 request saw {len(t2.result())} matches; "
        f"overlap={mgr.epoch_overlap('ids')}"
    )

    try:
        mgr.swap("ids", PatternDelta.from_strings(added=["virus"]))
    except ReproError as exc:
        print(f"  injected {type(exc).__name__} mid-swap: aborted, "
              f"still serving v{mgr.active('ids').version}")
    report = mgr.rollback("ids")
    print(f"  {report.describe()}")
    print(mgr.describe())
    print()


def _cmd_hotswap(args) -> int:
    from repro.bench.swap_bench import (
        SwapBenchmark,
        render_dip_cells,
        render_rebuild_cells,
    )
    from repro.errors import ExperimentError
    from repro.obs import BenchCollector

    try:
        churns = [float(s) for s in args.churns.split(",") if s.strip()]
        batch_sizes = [
            int(s) for s in args.batch_sizes.split(",") if s.strip()
        ]
    except ValueError:
        print("error: --churns / --batch-sizes expect comma lists of "
              "numbers")
        return 2
    if not batch_sizes or any(b < 1 for b in batch_sizes):
        print("error: --batch-sizes needs at least one size >= 1")
        return 2
    if not args.skip_rebuild and (
        not churns or any(not 0.0 < c < 1.0 for c in churns)
    ):
        print("error: --churns needs fractions in (0, 1)")
        return 2

    if args.demo:
        _hotswap_demo()

    collector = BenchCollector(label="hotswap") if args.out else None
    bench = SwapBenchmark(
        seed=args.seed,
        n_patterns=args.patterns,
        rebuild_patterns=args.rebuild_patterns,
        collector=collector,
    )
    if not args.skip_rebuild:
        print(f"rebuild-vs-churn (wall clock, {args.rebuild_patterns} "
              f"patterns, min of {args.repeats}):")
        try:
            rebuild_cells = bench.run_rebuild_cells(
                churns,
                repeats=args.repeats,
                min_speedup=args.min_speedup or None,
            )
        except ExperimentError as exc:
            print(f"FAIL: {exc}")
            return 1
        print(render_rebuild_cells(rebuild_cells))
        print()
    print(f"swap throughput dip (modeled, {args.patterns} patterns, "
          f"budget {bench.dip_budget:.0%}):")
    dip_cells = bench.run_dip_cells(batch_sizes)
    print(render_dip_cells(dip_cells))
    if collector is not None:
        collector.write_json(args.out)
        print(f"wrote {args.out} ({len(dip_cells)} dip cells)")
    return 0


def _cmd_match(args) -> int:
    from repro.core import DFA, PatternSet
    from repro.kernels import (
        run_global_kernel,
        run_pfac_kernel,
        run_shared_kernel,
    )

    with open(args.patterns_file, "r", encoding="latin-1") as fh:
        patterns = [line.rstrip("\n") for line in fh if line.strip()]
    with open(args.text_file, "rb") as fh:
        text = fh.read()
    if args.resilient:
        return _cmd_match_resilient(args, patterns, text)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    dfa = DFA.build(PatternSet.from_strings(patterns))
    kernel = {
        "shared": run_shared_kernel,
        "global": run_global_kernel,
        "pfac": run_pfac_kernel,
    }[args.kernel]
    kwargs = {"stt_backend": args.stt_backend}
    if args.tile_len is not None and args.kernel in ("shared", "global"):
        kwargs["tile_len"] = args.tile_len
    result = kernel(dfa, text, tracer=tracer, **kwargs)
    from repro.analysis import event_report

    print(f"kernel        : {result.name}")
    print(f"matches       : {len(result.matches)}")
    print(f"modeled time  : {result.seconds * 1e3:.3f} ms")
    print(f"throughput    : {result.throughput_gbps:.2f} Gbps")
    print(f"regime        : {result.timing.regime}")
    for m in list(result.matches)[:10]:
        print(f"  end={m.end} pattern={m.pattern_id}")
    if len(result.matches) > 10:
        print(f"  ... {len(result.matches) - 10} more")
    print()
    print(event_report(result))
    if tracer is not None:
        print()
        print(tracer.render())
    return 0


def _cmd_stats(args) -> int:
    from repro.matcher import Matcher
    from repro.obs import Metrics, Tracer

    with open(args.patterns_file, "r", encoding="latin-1") as fh:
        patterns = [line.rstrip("\n") for line in fh if line.strip()]
    with open(args.text_file, "rb") as fh:
        text = fh.read()
    metrics = Metrics()
    tracer = Tracer()
    matcher = Matcher(
        patterns,
        backend=args.backend,
        case_insensitive=args.case_insensitive,
        tracer=tracer,
        metrics=metrics,
        workers=args.workers,
    )
    backend = args.backend
    if args.resilient:
        from repro.resilience import ResilientMatcher

        rm = ResilientMatcher(
            matcher, tracer=tracer, metrics=metrics
        )
        result = rm.scan(text)
        if rm.last_health is not None and rm.last_health.final_backend:
            backend = rm.last_health.final_backend
    else:
        result = matcher.scan(text)
    print(f"# backend={backend} matches={len(result)}", file=sys.stderr)
    if args.format in ("json", "both"):
        print(metrics.to_json())
    if args.format in ("prometheus", "both"):
        print(metrics.to_prometheus())
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.core import DFA, PatternSet
    from repro.obs import KernelProfiler, Tracer, profile_kernel
    from repro.obs.traceexport import write_chrome_trace

    if (args.patterns_file is None) != (args.text_file is None):
        print("error: --patterns-file and --text-file go together")
        return 2
    if args.patterns_file is not None:
        with open(args.patterns_file, "r", encoding="latin-1") as fh:
            patterns = [line.rstrip("\n") for line in fh if line.strip()]
        with open(args.text_file, "rb") as fh:
            data = fh.read()
        dfa = DFA.build(PatternSet.from_strings(patterns))
    else:
        from repro.workload.datasets import DatasetFactory

        factory = DatasetFactory(seed=args.seed, scale=args.scale)
        cell = factory.cell(args.size, args.patterns)
        dfa = DFA.build(cell.patterns)
        data = cell.data

    profiler = KernelProfiler()
    tracer = Tracer() if args.format == "trace" else None
    kernel_kwargs = {}
    if args.tile_len is not None and args.kernel in (
        "shared_mem", "global_only"
    ):
        kernel_kwargs["tile_len"] = args.tile_len
    reports = profile_kernel(
        args.kernel,
        dfa,
        data,
        profiler=profiler,
        tracer=tracer,
        scheme=args.scheme,
        n_devices=args.devices,
        **kernel_kwargs,
    )
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], indent=2,
                         sort_keys=True))
    elif args.format == "trace":
        doc = write_chrome_trace(tracer, args.out)
        print(profiler.render())
        print()
        print(f"wrote {args.out} ({len(doc['traceEvents'])} trace events; "
              "load it at ui.perfetto.dev)")
    else:
        print(profiler.render())
    return 0


def _cmd_perfdiff(args) -> int:
    from repro.errors import ReproError
    from repro.obs.perfdiff import DEFAULT_THRESHOLDS, diff_files

    overrides = {}
    for spec in args.threshold:
        name, sep, value = spec.partition("=")
        if not sep:
            print(f"error: --threshold expects METRIC=FRAC, got {spec!r}")
            return 2
        if name not in DEFAULT_THRESHOLDS:
            print(f"error: unknown metric {name!r}; known: "
                  f"{', '.join(sorted(DEFAULT_THRESHOLDS))}")
            return 2
        direction, _ = DEFAULT_THRESHOLDS[name]
        overrides[name] = (direction, float(value))
    try:
        report = diff_files(
            args.baseline, args.current,
            thresholds=overrides or None,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    except (ReproError, ValueError) as exc:
        # SchemaError (version/field drift) or unparseable JSON.
        print(f"error: {exc}")
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    from repro.bench.experiments import run_figure
    from repro.errors import SchemaError
    from repro.obs import BenchCollector, validate_bench_document

    fids = [s.strip() for s in args.figures.split(",") if s.strip()]
    known = FIGURES | ABLATIONS
    for fid in fids:
        if fid not in known:
            print(f"error: unknown figure id {fid!r}; "
                  f"choose from {', '.join(sorted(known))}")
            return 2
    if args.resume and not args.cache_dir:
        print("error: --resume requires --cache-dir")
        return 2
    collector = BenchCollector()
    runner = ExperimentRunner(
        scale=args.scale,
        seed=args.seed,
        collector=collector,
        stt_backend=args.stt_backend,
        tile_len=args.tile_len,
        workers=args.workers,
        cell_cache_dir=args.cache_dir,
        resume=args.resume,
    )
    sizes = _parse_sizes(args.sizes)
    counts = _parse_counts(args.patterns)
    for fid in fids:
        run_figure(fid, runner, sizes, counts)
        print(f"ran {fid}: {len(collector.records)} cells collected so far")
    try:
        doc = collector.as_document()
        validate_bench_document(doc)
    except SchemaError as exc:
        print(f"schema drift: {exc}")
        return 1
    collector.write_json(args.out)
    print(f"wrote {args.out} "
          f"({len(doc['cells'])} cells, schema {doc['schema']} "
          f"v{doc['version']})")
    return 0


def _cmd_compressbench(args) -> int:
    from repro.bench.compress_bench import run_compress_bench
    from repro.errors import ExperimentError

    counts = [int(s) for s in args.patterns.split(",") if s.strip()]
    backends = [s.strip() for s in args.backends.split(",") if s.strip()]
    try:
        report = run_compress_bench(
            pattern_counts=counts,
            backends=backends,
            scale=args.scale,
            seed=args.seed,
            size_label=args.size,
            min_ratio=args.min_ratio,
            gate_patterns=args.gate_patterns,
            out=args.out,
            workers=args.workers,
            tile_len=args.tile_len,
        )
    except ExperimentError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(report)
    return 0


def _cmd_paperscale(args) -> int:
    import json
    import platform
    import time

    from repro.bench.runner import KERNEL_NAMES
    from repro.errors import ReproError
    from repro.obs import BenchCollector, validate_bench_document

    kernels = tuple(s.strip() for s in args.kernels.split(",") if s.strip())
    unknown = set(kernels) - set(KERNEL_NAMES)
    if unknown:
        print(f"error: unknown kernels {sorted(unknown)}; "
              f"valid: {', '.join(KERNEL_NAMES)}")
        return 2
    if args.resume and not args.cache_dir:
        print("error: --resume requires --cache-dir")
        return 2

    collector = BenchCollector(label="paperscale")
    runner = ExperimentRunner(
        scale=args.scale,
        seed=args.seed,
        stt_backend=args.stt_backend,
        tile_len=args.tile_len,
        workers=args.workers,
        cell_cache_dir=args.cache_dir,
        resume=args.resume,
    )
    runner.collector = collector
    collector.on_runner(runner.config_dict())
    sim_mb = runner.factory.sim_bytes_for(PAPER_SIZES[args.size]) / 1e6
    print(
        f"paperscale: {args.size} x {args.patterns} patterns "
        f"(sim {sim_mb:.1f} MB), kernels: {', '.join(kernels)}"
    )
    t0 = time.perf_counter()
    try:
        [cell] = runner.run_grid([args.size], [args.patterns], kernels)
    except ReproError as exc:
        print(f"FAIL: {exc}")
        return 1
    wall = time.perf_counter() - t0

    print(f"  n_states={cell.n_states}, wall-clock {wall:.1f}s")
    for name in kernels:
        print(
            f"  {name:>12}: {cell.seconds(name):10.4f} s modeled, "
            f"{cell.gbps(name):8.2f} Gbps at paper scale"
        )
    doc = collector.as_document()
    # Grid-generation cost: tracked next to the modeled numbers so perf
    # PRs can regress on runner wall-clock, not just modeled
    # throughput.  Validators tolerate unknown top-level keys.
    doc["wall_clock"] = {
        "grid_seconds": round(wall, 3),
        "workers": args.workers,
        "host": platform.machine() or "unknown",
        "sim_bytes": int(cell.sim_bytes),
    }
    validate_bench_document(doc)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(doc['cells'])} cell)")
    if args.budget_seconds > 0 and wall > args.budget_seconds:
        print(
            f"FAIL: grid wall-clock {wall:.1f}s exceeds the "
            f"--budget-seconds {args.budget_seconds:.0f}s budget"
        )
        return 1
    return 0


def _cmd_cpubench(args) -> int:
    import os

    from repro.bench.cpu_model import CpuConfig, multicore_speedup
    from repro.core.jit import jit_status

    host = os.cpu_count() or 1
    workers = args.workers or host
    runner = ExperimentRunner(
        scale=args.scale, seed=args.seed, tile_len=args.tile_len
    )
    cell = runner.factory.cell(args.size, args.patterns)
    print(
        f"cpubench: {args.size} x {args.patterns} patterns "
        f"(sim {cell.sim_bytes / 2**20:.1f} MiB), "
        f"workers={workers}, host cores={host}, jit: {jit_status()}"
    )
    meas = runner.measure_serial_mt(
        args.size, args.patterns, workers=workers, repeats=args.repeats
    )
    modeled = multicore_speedup(
        workers, CpuConfig(n_cores=max(host, workers))
    )
    print(f"measured: {meas.describe()}")
    print(
        f"modeled:  {modeled:.2f}x "
        f"(contention model at n_cores={max(host, workers)}, "
        f"measured/modeled = {meas.speedup / modeled:.2f})"
    )
    if args.min_speedup > 0 and meas.speedup < args.min_speedup:
        print(
            f"FAIL: measured speedup {meas.speedup:.2f}x is below the "
            f"--min-speedup {args.min_speedup:.2f}x gate"
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command in FIGURES or args.command in ABLATIONS:
        return _cmd_figure(args.command, args)
    if args.command == "calibrate":
        runner = ExperimentRunner(scale=args.scale, seed=args.seed)
        print(calibration_report(runner))
        return 0
    if args.command == "device":
        for k, v in gtx285().describe().items():
            print(f"{k:>18}: {v}")
        return 0
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "occupancy":
        return _cmd_occupancy(args)
    if args.command == "compress":
        return _cmd_compress(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "dot":
        return _cmd_dot(args)
    if args.command == "match":
        return _cmd_match(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "compressbench":
        return _cmd_compressbench(args)
    if args.command == "cpubench":
        return _cmd_cpubench(args)
    if args.command == "paperscale":
        return _cmd_paperscale(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "perfdiff":
        return _cmd_perfdiff(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "slo":
        return _cmd_slo(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "hotswap":
        return _cmd_hotswap(args)
    return 2  # pragma: no cover - argparse guards


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
