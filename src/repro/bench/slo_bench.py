"""SLO benchmark: multi-tenant serving load with burn-rate episodes.

Arudchutha et al.'s multicore study makes its scaling claims auditable
by attributing latency per stage; this benchmark does the same for the
serving plane: a seeded multi-tenant workload drives the
:class:`~repro.serve.ScanScheduler` under a
:class:`~repro.obs.slo.SloTracker`, and every reported number
decomposes into queue-wait vs. pipeline time per tenant (docs/MODEL.md
§12).

The run is a fixed windowed timeline on a
:class:`~repro.obs.slo.ManualClock` (every number replays
bit-identically):

* **steady** windows — each tenant submits a small request burst per
  window; queue waits stay well inside the latency objectives;
* **burst** windows — the *victim* tenant (first in the spec list)
  submits ``burst_factor``× its steady load in one window, deepening
  its own queue until its burn rate blows through the fire threshold:
  the multi-window burn-rate alert **fires**;
* **recovery** windows — load returns to steady; once the burst ages
  out of the slow lookback the alert **clears**.

The per-tenant drain keeps the episode isolated: only the victim's
alert may fire, and the run *asserts* the fire → clear sequence (plus
the innocence of every other tenant) before reporting anything — a
failed gate raises :class:`~repro.errors.ExperimentError`.

Each (tenant, window) batch of payloads is drawn from a generator
seeded by ``(seed, tenant, window)``, so no batch depends on another.

Exported cells (bench schema v2, gated by ``repro-ac perfdiff``):

* ``slo_{tenant}`` — latency-quantile kernels ``queue_wait_p50`` /
  ``queue_wait_p99`` / ``pipeline_p99`` / ``e2e_p50`` / ``e2e_p95`` /
  ``e2e_p99`` (seconds = the quantile, from the tracker's per-tenant
  sketches);
* ``slodip_{victim}`` — the burn episode as a dip family (the
  ``swapdip`` idiom): kernels ``steady`` / ``during_burst`` /
  ``recovery``, seconds = the victim's e2e p99 within each phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.runner import CellResult, launch_entry
from repro.compress.backend import DEFAULT_BACKEND
from repro.core.dfa import DFA
from repro.errors import ExperimentError
from repro.gpu.device import Device
from repro.kernels.shared_mem import run_shared_kernel
from repro.obs import EventLog, Metrics
from repro.obs.sketch import LatencySketch
from repro.obs.slo import (
    AlertTransition,
    BurnRatePolicy,
    ManualClock,
    SloObjective,
    SloPolicy,
    SloTracker,
    statusz,
)
from repro.serve import ScanScheduler
from repro.workload.datasets import DatasetFactory


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's dictionary size and steady per-window load."""

    name: str
    n_patterns: int
    requests_per_window: int = 8


#: Default tenant mix; the first entry is the burst victim.
DEFAULT_TENANTS = (
    TenantSpec("acme", 40),
    TenantSpec("globex", 60),
    TenantSpec("initech", 80),
)

#: Timeline phases, in order.
PHASES = ("steady", "during_burst", "recovery")

#: Timeline shape: window length and windows per phase.  The ring holds
#: 8 frames and the burn rule reads a 1-window fast and 4-window slow
#: lookback, so the recovery phase gives the burst time to age out.
WINDOW_SECONDS = 0.01
STEADY_WINDOWS = 3
BURST_WINDOWS = 2
RECOVERY_WINDOWS = 5
N_WINDOWS = STEADY_WINDOWS + BURST_WINDOWS + RECOVERY_WINDOWS

#: Manual-clock advance between consecutive submissions; with the
#: per-tenant drain, a tenant submitting ``k`` requests sees queue
#: waits up to ``(k - 1) * INTER_ARRIVAL_SECONDS``.
INTER_ARRIVAL_SECONDS = 2e-5


@dataclass
class TenantRow:
    """One tenant's dashboard row."""

    tenant: str
    requests: int
    total_bytes: int
    matches: int
    queue_wait: Dict[str, float]
    pipeline: Dict[str, float]
    e2e: Dict[str, float]
    peak_slow_burn: float
    alerts_fired: int
    alerts_cleared: int
    firing: bool


@dataclass
class SloBenchReport:
    """Everything one seeded run produced."""

    rows: List[TenantRow]
    #: (window index, transition) pairs, in occurrence order.
    transitions: List[Tuple[int, AlertTransition]]
    #: Victim e2e p99 per phase (the ``slodip`` cell's kernels).
    phase_p99: Dict[str, float]
    victim: str
    breached: bool
    status: Dict[str, object] = field(default_factory=dict)
    #: The run's structured event log (JSONL, info and above).
    events_jsonl: str = ""


class SloBenchmark:
    """Seeded multi-tenant SLO run with a deterministic burn episode.

    Parameters
    ----------
    seed:
        Master seed; payloads, dictionaries and therefore every modeled
        and windowed number derive from it.
    tenants:
        Tenant mix (first entry is the burst victim).
    burst_factor:
        Multiplier on the victim's steady load during burst windows.
    text_bytes:
        Bytes per request payload.
    """

    def __init__(
        self,
        *,
        seed: int = 2013,
        tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
        burst_factor: int = 5,
        text_bytes: int = 512,
        collector=None,
    ):
        if not tenants:
            raise ExperimentError("need at least one tenant")
        if burst_factor < 2:
            raise ExperimentError(
                f"burst_factor must be >= 2, got {burst_factor}"
            )
        self.seed = seed
        self.tenants = tuple(tenants)
        self.burst_factor = burst_factor
        self.text_bytes = text_bytes
        self.collector = collector
        self.factory = DatasetFactory(seed=seed)
        # Thresholds sized to the modeled timeline: steady waits are
        # (requests_per_window - 1) * inter_arrival, burst waits are
        # burst_factor times that — the objectives sit in between so
        # steady is clean and the burst breaches deterministically.
        steady_wait = (
            max(t.requests_per_window for t in self.tenants)
            * INTER_ARRIVAL_SECONDS
        )
        self.policy = SloPolicy(
            objectives=(
                SloObjective(
                    "request_p99", "request_seconds",
                    threshold=3.0 * steady_wait, target=0.99,
                ),
                SloObjective(
                    "queue_p95", "queue_wait_seconds",
                    threshold=2.5 * steady_wait, target=0.95,
                ),
            ),
            window_seconds=WINDOW_SECONDS,
            n_windows=8,
            burn=BurnRatePolicy(
                fast_windows=1, slow_windows=4,
                fire_burn=2.0, clear_burn=1.0,
            ),
        )
        if collector is not None:
            collector.on_runner(
                {
                    "seed": seed,
                    "slo_window_seconds": WINDOW_SECONDS,
                    "slo_tenants": len(self.tenants),
                    "slo_burst_factor": burst_factor,
                    "slo_text_bytes": text_bytes,
                }
            )

    # -- workload --------------------------------------------------------

    @staticmethod
    def phase_of(window: int) -> str:
        """Which phase a window index belongs to."""
        if window < STEADY_WINDOWS:
            return "steady"
        if window < STEADY_WINDOWS + BURST_WINDOWS:
            return "during_burst"
        return "recovery"

    def requests_in(self, spec: TenantSpec, window: int) -> int:
        """Requests *spec* submits in *window* (burst inflates the
        victim)."""
        n = spec.requests_per_window
        if (
            spec.name == self.tenants[0].name
            and self.phase_of(window) == "during_burst"
        ):
            n *= self.burst_factor
        return n

    def _payload(self, tenant_idx: int, window: int) -> List[np.ndarray]:
        """One (tenant, window) batch of request payloads, self-seeded."""
        spec = self.tenants[tenant_idx]
        rng = np.random.default_rng([self.seed, tenant_idx, window])
        return [
            rng.integers(97, 123, size=self.text_bytes, dtype=np.uint8)
            for _ in range(self.requests_in(spec, window))
        ]

    def _generate_payloads(self) -> Dict[Tuple[str, int], List[np.ndarray]]:
        """Every (tenant, window) batch of the timeline."""
        return {
            (spec.name, w): self._payload(idx, w)
            for idx, spec in enumerate(self.tenants)
            for w in range(N_WINDOWS)
        }

    # -- the run ---------------------------------------------------------

    def run(self) -> SloBenchReport:
        """Drive the full timeline; gate the episode; export cells."""
        clock = ManualClock()
        eventlog = EventLog(clock=clock)
        metrics = Metrics()
        tracker = SloTracker(
            self.policy, clock=clock, eventlog=eventlog, metrics=metrics
        )
        scheduler = ScanScheduler(
            backend="gpu",
            max_batch=max(
                self.requests_in(s, w)
                for s in self.tenants
                for w in range(N_WINDOWS)
            ),
            metrics=metrics,
            clock=clock,
            slo=tracker,
            eventlog=eventlog,
        )
        patterns = {
            spec.name: self.factory.patterns_for(spec.n_patterns)
            for spec in self.tenants
        }
        payloads = self._generate_payloads()
        victim = self.tenants[0].name

        matches: Dict[str, int] = {s.name: 0 for s in self.tenants}
        total_bytes: Dict[str, int] = {s.name: 0 for s in self.tenants}
        requests: Dict[str, int] = {s.name: 0 for s in self.tenants}
        phase_e2e = {phase: LatencySketch() for phase in PHASES}
        transitions: List[Tuple[int, AlertTransition]] = []
        peak_slow: Dict[str, float] = {s.name: 0.0 for s in self.tenants}

        for w in range(N_WINDOWS):
            phase = self.phase_of(w)
            for spec in self.tenants:
                texts = payloads[(spec.name, w)]
                tickets = []
                for text in texts:
                    tickets.append(
                        scheduler.submit(
                            patterns[spec.name], text, tenant=spec.name
                        )
                    )
                    clock.advance(INTER_ARRIVAL_SECONDS)
                scheduler.drain()
                for ticket in tickets:
                    matches[spec.name] += len(ticket.result())
                    total_bytes[spec.name] += ticket.request.n_bytes
                    requests[spec.name] += 1
                    if spec.name == victim:
                        phase_e2e[phase].observe(
                            ticket.queue_wait_seconds
                            + ticket.pipeline_seconds
                        )
            for transition in tracker.evaluate():
                transitions.append((w, transition))
            for spec in self.tenants:
                peak_slow[spec.name] = max(
                    peak_slow[spec.name],
                    tracker.burn_rate(
                        "request_p99", tenant=spec.name,
                        windows=self.policy.burn.slow_windows,
                    ),
                )
            clock.advance((w + 1) * WINDOW_SECONDS - clock.t)

        self._gate_episode(transitions, tracker, victim)
        snapshot = tracker.snapshot()
        rows = self._rows(
            tracker, snapshot, matches, total_bytes, requests, peak_slow
        )
        report = SloBenchReport(
            rows=rows,
            transitions=transitions,
            phase_p99={
                phase: sketch.quantile(0.99)
                for phase, sketch in phase_e2e.items()
            },
            victim=victim,
            breached=tracker.breached,
            status=statusz(
                tracker=tracker,
                scheduler=scheduler,
                cache=scheduler.cache,
                metrics=metrics,
            ),
            events_jsonl=eventlog.to_jsonl(min_severity="info"),
        )
        if self.collector is not None:
            self._export_cells(report, patterns, payloads, tracker)
        return report

    def _gate_episode(self, transitions, tracker, victim) -> None:
        """Acceptance gates: the episode must fire, clear, and isolate."""
        victim_edges = [
            t.action
            for _, t in transitions
            if t.objective == "request_p99" and t.tenant == victim
        ]
        if victim_edges != ["fired", "cleared"]:
            raise ExperimentError(
                "burn episode did not fire-then-clear for the victim "
                f"(saw {victim_edges}); the workload no longer breaches "
                "deterministically"
            )
        bystanders = [
            t.tenant for _, t in transitions if t.tenant != victim
        ]
        if bystanders:
            raise ExperimentError(
                "burst leaked across the per-tenant drain: alerts "
                f"touched bystander tenants {sorted(set(bystanders))}"
            )
        if tracker.breached:
            raise ExperimentError(
                "tracker still breached after the recovery phase"
            )

    def _rows(
        self, tracker, snapshot, matches, total_bytes, requests, peak_slow
    ) -> List[TenantRow]:
        by_objective = {
            obj["name"]: obj for obj in snapshot["objectives"]
        }
        rows = []
        for spec in self.tenants:
            name = spec.name
            state = by_objective["request_p99"]["tenants"].get(name, {})
            rows.append(
                TenantRow(
                    tenant=name,
                    requests=requests[name],
                    total_bytes=total_bytes[name],
                    matches=matches[name],
                    queue_wait=tracker.tenant_sketch(
                        name, "queue_wait_seconds"
                    ).summary(),
                    pipeline=tracker.tenant_sketch(
                        name, "pipeline_seconds"
                    ).summary(),
                    e2e=tracker.tenant_sketch(
                        name, "request_seconds"
                    ).summary(),
                    peak_slow_burn=peak_slow[name],
                    alerts_fired=state.get("fires", 0),
                    alerts_cleared=state.get("fires", 0)
                    - (1 if state.get("firing") else 0),
                    firing=bool(state.get("firing", False)),
                )
            )
        return rows

    # -- cell export -----------------------------------------------------

    def _export_cells(self, report, patterns, payloads, tracker) -> None:
        """Emit the ``slo_*`` and ``slodip_*`` schema-v2 cell families."""
        for spec, row in zip(self.tenants, report.rows):
            dfa = DFA.build(patterns[spec.name])
            device = Device()
            device.bind_texture(dfa, DEFAULT_BACKEND)
            kr = run_shared_kernel(
                dfa,
                np.concatenate(payloads[(spec.name, 0)]),
                device,
            )

            def _entries(seconds_by_name):
                return {
                    name: launch_entry(
                        kr, name, seconds,
                        self.text_bytes * 8 / seconds / 1e9
                        if seconds > 0 else 0.0,
                        row.matches,
                    )
                    for name, seconds in seconds_by_name.items()
                }

            kernels = _entries({
                "queue_wait_p50": row.queue_wait["p50"],
                "queue_wait_p99": row.queue_wait["p99"],
                "pipeline_p99": row.pipeline["p99"],
                "e2e_p50": row.e2e["p50"],
                "e2e_p95": row.e2e["p95"],
                "e2e_p99": row.e2e["p99"],
            })
            if spec.name == report.victim:
                dip_kernels = _entries(report.phase_p99)
                self.collector.on_cell(
                    CellResult(
                        size_label=f"slodip_{spec.name}",
                        paper_bytes=row.total_bytes,
                        sim_bytes=row.total_bytes,
                        n_patterns=spec.n_patterns,
                        n_states=dfa.n_states,
                        kernels=dip_kernels,
                    ),
                    cached=False,
                )
            self.collector.on_cell(
                CellResult(
                    size_label=f"slo_{spec.name}",
                    paper_bytes=row.total_bytes,
                    sim_bytes=row.total_bytes,
                    n_patterns=spec.n_patterns,
                    n_states=dfa.n_states,
                    kernels=kernels,
                ),
                cached=False,
            )


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:8.1f}"


def render_dashboard(report: SloBenchReport) -> str:
    """The ``repro-ac slo`` dashboard text for one report."""
    lines = [
        f"{'tenant':<10} {'reqs':>5} {'queue p50':>10} {'queue p99':>10} "
        f"{'pipe p99':>10} {'e2e p50':>10} {'e2e p95':>10} {'e2e p99':>10} "
        f"{'burn(pk)':>8}  alerts",
        "-" * 108,
    ]
    for row in report.rows:
        alert = "FIRING" if row.firing else (
            f"{row.alerts_fired} fired/{row.alerts_cleared} cleared"
            if row.alerts_fired
            else "ok"
        )
        lines.append(
            f"{row.tenant:<10} {row.requests:>5}"
            f" {_us(row.queue_wait['p50']):>8}us"
            f" {_us(row.queue_wait['p99']):>8}us"
            f" {_us(row.pipeline['p99']):>8}us"
            f" {_us(row.e2e['p50']):>8}us"
            f" {_us(row.e2e['p95']):>8}us"
            f" {_us(row.e2e['p99']):>8}us"
            f" {row.peak_slow_burn:>7.1f}x  {alert}"
        )
    lines.append("")
    lines.append(
        f"burn episode ({report.victim}): "
        + "  ".join(
            f"{phase} p99 {report.phase_p99[phase] * 1e6:.1f}us"
            for phase in PHASES
        )
    )
    for window, t in report.transitions:
        lines.append(
            f"  window {window}: {t.objective}/{t.tenant} {t.action} "
            f"(fast {t.fast_burn:.1f}x, slow {t.slow_burn:.1f}x)"
        )
    lines.append(
        "slo state: " + ("BREACHED" if report.breached else "healthy")
    )
    return "\n".join(lines)
