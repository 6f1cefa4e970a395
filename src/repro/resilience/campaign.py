"""Seeded fault-injection campaigns against the serial oracle.

The resilience subsystem's contract is a single sentence: **under every
injected fault class, a scan either returns matches byte-exact with the
serial oracle or raises a typed** :class:`~repro.errors.ReproError`.
This module turns that sentence into an executable property: each
trial draws a random dictionary, a random text, and a random fault of a
given class (all from one seed), runs the resilient pipeline, and
classifies the outcome.  ``silent_mismatch`` and ``untyped_error``
counts must be zero — a campaign with either is a failed campaign.

Trials deliberately randomize the fault's *lifetime* too: one-shot
faults exercise the retry path (the glitch clears, the same backend
succeeds), persistent faults exercise the fallback chain, and
persistent faults with a GPU-only chain exercise the typed-error
surface.  The same seed always reproduces the same trial end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dfa import DFA
from repro.core.pattern_set import PatternSet
from repro.core.serial import match_serial
from repro.errors import ReproError
from repro.resilience.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    SWAP_FAULT_KINDS,
)
from repro.resilience.pipeline import DEFAULT_CHAIN, ResilientMatcher

#: Trial texts/patterns draw from a small alphabet so matches are dense
#: (a campaign over match-free texts would prove nothing about match
#: integrity).
_ALPHABET = b"abcdef"

#: Outcome labels, in decreasing order of "good".
STATUS_EXACT = "exact"
STATUS_TYPED_ERROR = "typed_error"
STATUS_SILENT_MISMATCH = "silent_mismatch"
STATUS_UNTYPED_ERROR = "untyped_error"


@dataclass(frozen=True)
class TrialOutcome:
    """One classified campaign trial."""

    kind: FaultKind
    seed: int
    status: str
    error_type: Optional[str] = None
    final_backend: Optional[str] = None
    retries: int = 0
    fallbacks: int = 0
    faults_fired: int = 0
    chain: Tuple[str, ...] = DEFAULT_CHAIN

    @property
    def ok(self) -> bool:
        """True for the two permitted outcomes."""
        return self.status in (STATUS_EXACT, STATUS_TYPED_ERROR)


@dataclass
class CampaignReport:
    """Aggregated outcomes of a campaign."""

    outcomes: List[TrialOutcome] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        """Trials with the given status label."""
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def ok(self) -> bool:
        """True when zero silent mismatches and zero untyped errors."""
        return all(o.ok for o in self.outcomes)

    def by_kind(self) -> Dict[FaultKind, Dict[str, int]]:
        """Per-fault-class status histogram."""
        table: Dict[FaultKind, Dict[str, int]] = {}
        for o in self.outcomes:
            row = table.setdefault(o.kind, {})
            row[o.status] = row.get(o.status, 0) + 1
        return table

    def render(self) -> str:
        """ASCII table for the CLI."""
        header = (
            f"{'fault class':<18} {'trials':>6} {'exact':>6} "
            f"{'typed':>6} {'MISMATCH':>9} {'UNTYPED':>8}"
        )
        lines = [header, "-" * len(header)]
        for kind in FaultKind:
            rows = [o for o in self.outcomes if o.kind is kind]
            if not rows:
                continue
            lines.append(
                f"{kind.value:<18} {len(rows):>6} "
                f"{sum(o.status == STATUS_EXACT for o in rows):>6} "
                f"{sum(o.status == STATUS_TYPED_ERROR for o in rows):>6} "
                f"{sum(o.status == STATUS_SILENT_MISMATCH for o in rows):>9} "
                f"{sum(o.status == STATUS_UNTYPED_ERROR for o in rows):>8}"
            )
        lines.append("-" * len(header))
        recovered = sum(
            o.status == STATUS_EXACT and (o.retries or o.fallbacks)
            for o in self.outcomes
        )
        lines.append(
            f"{self.n_trials} trials: "
            f"{self.count(STATUS_EXACT)} exact "
            f"({recovered} via retry/fallback), "
            f"{self.count(STATUS_TYPED_ERROR)} typed errors, "
            f"{self.count(STATUS_SILENT_MISMATCH)} silent mismatches, "
            f"{self.count(STATUS_UNTYPED_ERROR)} untyped errors"
        )
        lines.append("invariant " + ("HELD" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def _random_workload(rng: np.random.Generator) -> Tuple[PatternSet, bytes]:
    """A seed-driven (dictionary, text) pair with dense matches."""
    n_pat = int(rng.integers(3, 9))
    patterns = set()
    while len(patterns) < n_pat:
        length = int(rng.integers(2, 7))
        patterns.add(
            bytes(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), length))
        )
    text = bytes(
        _ALPHABET[i]
        for i in rng.integers(0, len(_ALPHABET), int(rng.integers(512, 2048)))
    )
    return PatternSet.from_bytes(sorted(patterns)), text


def _random_fault(kind: FaultKind, rng: np.random.Generator) -> Fault:
    """A seed-driven fault of the requested class."""
    return Fault(
        kind=kind,
        trigger=int(rng.integers(1, 3)),
        persistent=bool(rng.integers(0, 2)),
        seed=int(rng.integers(0, 2**31)),
        bits=int(rng.integers(1, 33)),
        drop_bytes=int(rng.integers(1, 257)),
        garble_bytes=int(rng.integers(1, 65)),
        deadline_seconds=float(rng.uniform(0.0, 1e-9)),
    )


def run_trial(
    kind: FaultKind,
    seed: int,
    *,
    chain: Optional[Sequence[str]] = None,
    max_retries: int = 2,
    backoff_jitter: float = 0.0,
    backoff_seed: int = 0,
    backoff_max: float = 1.0,
) -> TrialOutcome:
    """One seeded trial: inject one fault of *kind*, classify the outcome.

    When *chain* is None the trial randomizes between the full fallback
    chain and a GPU-only chain (the latter is what surfaces typed
    errors for persistent faults).

    Backoff inside a trial never sleeps for real, but the jitter knobs
    still flow through so replays of a jittered configuration are
    bit-reproducible: the same ``backoff_seed`` draws the same jitter
    sequence into each attempt's recorded ``backoff_seconds``.

    Swap-path fault kinds (:data:`~repro.resilience.faults.
    SWAP_FAULT_KINDS`) dispatch to :func:`run_swap_trial`: a plain scan
    never visits a swap site, so those classes are exercised mid-swap
    under concurrent scheduler load instead.
    """
    kind = FaultKind(kind)
    if kind in SWAP_FAULT_KINDS:
        return run_swap_trial(kind, seed, chain=chain)
    rng = np.random.default_rng(seed)
    patterns, text = _random_workload(rng)
    fault = _random_fault(kind, rng)
    if chain is None:
        chain = DEFAULT_CHAIN if rng.integers(0, 4) else ("gpu",)
    chain = tuple(chain)

    oracle = match_serial(DFA.build(patterns), text)
    injector = FaultInjector(FaultPlan([fault]))
    rm = ResilientMatcher(
        patterns,
        chain=chain,
        max_retries=max_retries,
        backoff_cap=backoff_max,
        backoff_jitter=backoff_jitter,
        backoff_seed=backoff_seed,
        injector=injector,
        sleep=lambda s: None,  # campaigns must not actually sleep
    )
    try:
        result = rm.scan(text)
    except ReproError as exc:
        health = rm.last_health
        return TrialOutcome(
            kind=kind,
            seed=seed,
            status=STATUS_TYPED_ERROR,
            error_type=type(exc).__name__,
            retries=health.retries if health else 0,
            fallbacks=len(health.fallbacks) if health else 0,
            faults_fired=len(injector.events),
            chain=chain,
        )
    except Exception as exc:  # noqa: BLE001 - the property being tested
        return TrialOutcome(
            kind=kind,
            seed=seed,
            status=STATUS_UNTYPED_ERROR,
            error_type=type(exc).__name__,
            faults_fired=len(injector.events),
            chain=chain,
        )
    health = rm.last_health
    status = STATUS_EXACT if result == oracle else STATUS_SILENT_MISMATCH
    return TrialOutcome(
        kind=kind,
        seed=seed,
        status=status,
        final_backend=health.final_backend if health else None,
        retries=health.retries if health else 0,
        fallbacks=len(health.fallbacks) if health else 0,
        faults_fired=len(injector.events),
        chain=chain,
    )


def _fresh_patterns(
    rng: np.random.Generator, existing: set, n: int
) -> List[bytes]:
    """*n* random patterns disjoint from *existing* (small alphabet)."""
    out: List[bytes] = []
    while len(out) < n:
        length = int(rng.integers(2, 7))
        pat = bytes(
            _ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), length)
        )
        if pat not in existing:
            existing.add(pat)
            out.append(pat)
    return out


def run_swap_trial(
    kind: FaultKind,
    seed: int,
    *,
    chain: Optional[Sequence[str]] = None,
) -> TrialOutcome:
    """One seeded mid-swap chaos trial under concurrent scan load.

    The trial drives four hot-swaps (two by delta — one passed
    serialized — and two by whole dictionary, so every swap fault's
    trigger count is reachable) through an :class:`~repro.serve.epoch.EpochManager`
    attached to a :class:`~repro.serve.scheduler.ScanScheduler`, with
    requests submitted **before and after each swap but drained
    together**, so every swap lands while the previous epoch still has
    in-flight leases.

    Classification is per-request against the serial oracle of the
    version that request was *admitted* under — a request served by any
    other version's automaton (a torn epoch read) is a
    ``silent_mismatch``.  A swap aborted by its injected fault must
    leave serving untouched: later requests are simply admitted (and
    oracle-checked) under the surviving version.
    """
    from repro.serve.epoch import EpochManager, EpochState
    from repro.serve.scheduler import SCHEDULER_BACKENDS, ScanScheduler

    kind = FaultKind(kind)
    rng = np.random.default_rng(seed)
    patterns, _ = _random_workload(rng)
    fault = _random_fault(kind, rng)
    if chain is None:
        chain = DEFAULT_CHAIN if rng.integers(0, 4) else ("gpu",)
    chain = tuple(chain)
    backend = chain[0] if chain[0] in SCHEDULER_BACKENDS else "serial"

    injector = FaultInjector(FaultPlan([fault]))
    mgr = EpochManager(injector=injector)
    sched = ScanScheduler(backend=backend, epochs=mgr)
    mgr.register("rules", patterns)
    vocabulary = set(patterns.as_bytes_list())

    def text() -> bytes:
        return bytes(
            _ALPHABET[i]
            for i in rng.integers(
                0, len(_ALPHABET), int(rng.integers(256, 1024))
            )
        )

    def next_delta():
        from repro.core.delta import PatternDelta

        head = mgr.active("rules").patterns.as_bytes_list()
        added = _fresh_patterns(rng, vocabulary, int(rng.integers(1, 3)))
        removed = []
        if len(head) > 1 and rng.integers(0, 2):
            removed = [head[int(rng.integers(0, len(head)))]]
        return PatternDelta(tuple(added), tuple(removed))

    def next_full():
        head = mgr.active("rules").patterns.as_bytes_list()
        return head + _fresh_patterns(rng, vocabulary, 1)

    swap_error: Optional[ReproError] = None
    admitted = []  # (ticket, admitted PatternSet, text)

    def submit_some() -> None:
        for _ in range(int(rng.integers(1, 4))):
            t = text()
            ticket = sched.submit_named("rules", t)
            admitted.append((ticket, ticket.request.lease.epoch.patterns, t))

    try:
        for round_no in range(4):
            submit_some()  # admitted under the pre-swap epoch
            try:
                if round_no % 2 == 0:
                    delta = next_delta()
                    # Alternate the wire path: serialized blobs take
                    # the CRC-gated deserialization that DELTA_CORRUPT
                    # attacks directly.
                    mgr.swap(
                        "rules",
                        delta.to_bytes() if round_no else delta,
                    )
                else:
                    mgr.swap("rules", patterns=next_full())
            except ReproError as exc:
                if swap_error is None:
                    swap_error = exc
            submit_some()  # admitted under the post-swap (or surviving) epoch
            sched.drain()
            if mgr.epoch_overlap("rules") > mgr.overlap_budget:
                raise AssertionError("epoch overlap budget exceeded")
        for epoch in mgr.epochs("rules"):
            if epoch.state is EpochState.RETIRED and (
                epoch.refs != 0 or epoch.built is not None
            ):
                raise AssertionError("retired epoch still referenced")
        mismatched = False
        request_error: Optional[ReproError] = None
        for ticket, admitted_patterns, t in admitted:
            try:
                result = ticket.result()
            except ReproError as exc:
                if request_error is None:
                    request_error = exc
                continue
            oracle = match_serial(DFA.build(admitted_patterns), t)
            if result != oracle:
                mismatched = True
    except ReproError as exc:
        return TrialOutcome(
            kind=kind,
            seed=seed,
            status=STATUS_TYPED_ERROR,
            error_type=type(exc).__name__,
            faults_fired=len(injector.events),
            chain=chain,
        )
    except Exception as exc:  # noqa: BLE001 - the property being tested
        return TrialOutcome(
            kind=kind,
            seed=seed,
            status=STATUS_UNTYPED_ERROR,
            error_type=type(exc).__name__,
            faults_fired=len(injector.events),
            chain=chain,
        )
    if mismatched:
        status, error = STATUS_SILENT_MISMATCH, None
    elif swap_error is not None or request_error is not None:
        status = STATUS_TYPED_ERROR
        error = swap_error if swap_error is not None else request_error
    else:
        status, error = STATUS_EXACT, None
    return TrialOutcome(
        kind=kind,
        seed=seed,
        status=status,
        error_type=type(error).__name__ if error is not None else None,
        final_backend=backend,
        faults_fired=len(injector.events),
        chain=chain,
    )


def run_swap_campaign(
    trials_per_kind: int = 40,
    seed: int = 0,
    *,
    chain: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """A campaign over only the mid-swap fault classes."""
    return run_campaign(
        kinds=list(SWAP_FAULT_KINDS),
        trials_per_kind=trials_per_kind,
        seed=seed,
        chain=chain,
    )


def run_campaign(
    kinds: Optional[Sequence[FaultKind]] = None,
    trials_per_kind: int = 40,
    seed: int = 0,
    *,
    chain: Optional[Sequence[str]] = None,
    max_retries: int = 2,
    backoff_jitter: float = 0.0,
    backoff_seed: int = 0,
    backoff_max: float = 1.0,
) -> CampaignReport:
    """Run ``trials_per_kind`` seeded trials for each fault class."""
    import zlib

    kinds = list(kinds) if kinds is not None else list(FaultKind)
    report = CampaignReport()
    for kind in kinds:
        kind_salt = zlib.crc32(kind.value.encode("ascii")) % 65_521
        for i in range(trials_per_kind):
            # Distinct, stable seed per (kind, index) pair.
            trial_seed = seed * 1_000_003 + kind_salt + i * 7919
            report.outcomes.append(
                run_trial(
                    kind,
                    trial_seed,
                    chain=chain,
                    max_retries=max_retries,
                    backoff_jitter=backoff_jitter,
                    backoff_seed=backoff_seed,
                    backoff_max=backoff_max,
                )
            )
    return report
