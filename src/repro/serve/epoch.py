"""Epoch-based zero-downtime rule hot-swap.

An *epoch* is one compiled automaton serving one registered version of
a named pattern set.  :class:`EpochManager` owns the swap protocol
(docs/MODEL.md §10):

* **Admission pins a version.**  Every scan admitted while epoch *N* is
  active runs — and is oracle-checked — against *N*'s automaton, even
  if the swap to *N+1* lands while the batch is still in flight.
  :meth:`EpochManager.admit` returns a refcounted :class:`EpochLease`;
  the scheduler releases it when the request's batch drains.
* **Swaps build aside, verify, then commit.**  A swap builds the new
  version's automaton next to the serving one — one
  :meth:`~repro.core.dfa.DFA.build` of the new dictionary, whether a
  delta or a whole dictionary names it
  (:class:`~repro.core.delta.DeltaBuilder`), under the ``rebuild``
  watchdog — re-verifies every STT row checksum, and only then moves
  the active pointer.  The old epoch keeps serving
  its in-flight leases (state ``draining``) and is retired — its table
  dropped — when the last lease is released.
* **Overlap is budgeted.**  At most ``overlap_budget`` (default 2)
  epochs of one name may hold tables at once.  If rebuilds outpace
  drains, :meth:`swap` refuses with
  :class:`~repro.errors.OverlapBudgetError` — backpressure, not
  unbounded memory growth.
* **Failures abort, never tear.**  A corrupt delta blob
  (:class:`~repro.errors.IntegrityError` from the CRC trailer), a
  checksum-mismatched freshly built STT, a rebuild tripping its
  watchdog (:class:`~repro.errors.KernelTimeoutError`), or an invalid
  delta (:class:`~repro.errors.DeltaError`) aborts the swap before the
  commit point: the active pointer never moves, the registry gains no
  version, and serving continues on the last good epoch.  The chaos
  campaign (:func:`repro.resilience.campaign.run_swap_campaign`) fires
  exactly these faults mid-swap under concurrent load and asserts
  byte-identical matches against each request's admitted version.

Fault-injection sites poked here (never by the Device): ``delta_apply``
(:attr:`~repro.resilience.faults.FaultKind.DELTA_CORRUPT`),
``rebuild`` (:attr:`~repro.resilience.faults.FaultKind.REBUILD_TIMEOUT`),
and ``swap_verify``
(:attr:`~repro.resilience.faults.FaultKind.SWAP_STT_MISMATCH`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Union

from repro.core.delta import BuiltVersion, DeltaBuilder, PatternDelta
from repro.core.integrity import verify_row_checksums
from repro.core.pattern_set import PatternSet
from repro.errors import (
    DeltaError,
    IntegrityError,
    KernelTimeoutError,
    OverlapBudgetError,
    SerializationError,
    SwapError,
)
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.serve.registry import PatternSetRegistry, VersionRecord

__all__ = [
    "Epoch",
    "EpochLease",
    "EpochManager",
    "EpochState",
    "SwapReport",
]

#: Errors that abort a swap gracefully (rollback to last good epoch).
#: Anything else is a programming error and propagates unclassified.
SWAP_ABORT_ERRORS = (
    DeltaError,
    SerializationError,  # includes IntegrityError
    KernelTimeoutError,
)


class EpochState(str, Enum):
    """Lifecycle of one epoch (MODEL.md §10 state machine)."""

    ACTIVE = "active"  # new admissions land here
    DRAINING = "draining"  # superseded, still serving old leases
    RETIRED = "retired"  # last lease released; table freed

    def __str__(self) -> str:  # pragma: no cover - repr aid
        return self.value


class Epoch:
    """One compiled version of a named pattern set, refcounted.

    ``built`` is dropped at retirement (that *is* the "old STT freed"
    moment); ``record`` — the registry's immutable version metadata,
    patterns included — survives so late readers (campaign oracles,
    reports) can still ask what this epoch was matching.
    """

    __slots__ = ("epoch_id", "record", "built", "state", "refs")

    def __init__(
        self, epoch_id: int, record: VersionRecord, built: BuiltVersion
    ) -> None:
        self.epoch_id = epoch_id
        self.record = record
        self.built: Optional[BuiltVersion] = built
        self.state = EpochState.ACTIVE
        self.refs = 0

    @property
    def name(self) -> str:
        """The rule-set name this epoch serves."""
        return self.record.name

    @property
    def version(self) -> int:
        """The registry version this epoch compiled."""
        return self.record.version

    @property
    def digest(self) -> str:
        """Content digest of the pattern set (cache/batch key)."""
        return self.record.digest

    @property
    def patterns(self) -> PatternSet:
        """The dictionary (available even after retirement)."""
        return self.record.patterns

    @property
    def holds_table(self) -> bool:
        """True while this epoch's STT is resident (counts against the
        overlap budget)."""
        return self.built is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Epoch(#{self.epoch_id} {self.name}@v{self.version} "
            f"{self.state.value} refs={self.refs})"
        )


class EpochLease:
    """One admitted request's pin on an epoch.

    Created by :meth:`EpochManager.admit`, released exactly once by
    :meth:`EpochManager.release` (double release is a no-op so drain
    paths need no bookkeeping).
    """

    __slots__ = ("epoch", "released")

    def __init__(self, epoch: Epoch) -> None:
        self.epoch = epoch
        self.released = False


@dataclass
class SwapReport:
    """Everything one swap attempt decided, timed, and touched."""

    name: str
    from_version: int
    to_version: Optional[int]  # None when the swap aborted
    #: What named the new version: ``"delta"`` (a :class:`PatternDelta`,
    #: lineage recorded), ``"full"`` (a whole dictionary, a root
    #: version) or ``"rollback"``.  Every mode builds the same way: one
    #: ``DFA.build`` of the new dictionary.
    mode: str
    rebuild_ms: float = 0.0
    verify_ms: float = 0.0
    #: Rows built (every row: a version is built from scratch) and rows
    #: reused from the previous version (none).
    dirty_rows: int = 0
    reused_rows: int = 0
    churn: int = 0
    #: Live epochs of this name right after the attempt (1 = old epoch
    #: already drained, 2 = overlap window open).
    epoch_overlap: int = 1
    aborted: bool = False
    error_type: Optional[str] = None
    #: Version still serving after an abort (the rollback target).
    rolled_back_to: Optional[int] = None

    def describe(self) -> str:
        """One-line summary for the CLI."""
        if self.aborted:
            return (
                f"{self.name}: swap ABORTED ({self.error_type}); "
                f"serving v{self.rolled_back_to} unchanged"
            )
        revert = (
            f" (content of v{self.rolled_back_to})"
            if self.mode == "rollback"
            else ""
        )
        return (
            f"{self.name}: v{self.from_version} -> v{self.to_version}"
            f"{revert} [{self.mode}] rebuild {self.rebuild_ms:.1f} ms, "
            f"verify {self.verify_ms:.1f} ms, overlap {self.epoch_overlap}"
        )


class EpochManager:
    """Owns epochs, the swap protocol, and the rollback path.

    Parameters
    ----------
    registry:
        Shared :class:`~repro.serve.registry.PatternSetRegistry`
        (default: a private one).  Versions are registered only at the
        commit point, so an aborted swap leaves no registry trace.
    overlap_budget:
        Maximum epochs of one name holding STTs simultaneously
        (default 2: the serving epoch plus the one being swapped in).
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; the
        manager pokes the ``delta_apply``, ``rebuild``, and
        ``swap_verify`` sites (chaos campaigns; production never sets
        this).
    tracer / metrics:
        Optional observability hooks (``epoch_swap`` spans;
        ``epoch_swaps_total`` / ``epoch_swap_aborts_total`` counters,
        ``epoch_rebuild_ms`` / ``epoch_overlap`` gauges).
    """

    def __init__(
        self,
        registry: Optional[PatternSetRegistry] = None,
        *,
        overlap_budget: int = 2,
        injector=None,
        tracer=None,
        metrics=None,
    ) -> None:
        if overlap_budget < 2:
            raise SwapError(
                f"overlap_budget must be >= 2 (old + incoming epoch), "
                f"got {overlap_budget}"
            )
        self.registry = registry if registry is not None else PatternSetRegistry()
        self.overlap_budget = overlap_budget
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._active: Dict[str, Epoch] = {}
        self._epochs: Dict[str, List[Epoch]] = {}
        self._next_epoch_id = 0
        self.swaps: List[SwapReport] = []

    # -- introspection ---------------------------------------------------

    def active(self, name: str) -> Epoch:
        """The epoch new admissions of *name* land on."""
        try:
            return self._active[name]
        except KeyError:
            raise SwapError(
                f"no active epoch for {name!r}; call register() first"
            ) from None

    def epochs(self, name: str) -> List[Epoch]:
        """Every epoch ever created for *name*, oldest first."""
        return list(self._epochs.get(name, ()))

    def live_epochs(self, name: str) -> List[Epoch]:
        """Epochs of *name* still holding their STT (budget consumers)."""
        return [e for e in self._epochs.get(name, ()) if e.holds_table]

    def epoch_overlap(self, name: str) -> int:
        """How many epochs of *name* hold tables right now."""
        return len(self.live_epochs(name))

    def lifecycle_snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """Per-name epoch lifecycle for :func:`repro.obs.slo.statusz`.

        One entry per epoch ever created, oldest first: id, version,
        state, refcount and whether its STT is still resident — the
        at-a-glance answer to "is anything stuck DRAINING and pinning
        memory".
        """
        return {
            name: [
                {
                    "epoch": epoch.epoch_id,
                    "version": epoch.version,
                    "state": epoch.state.name.lower(),
                    "refs": epoch.refs,
                    "holds_table": epoch.holds_table,
                }
                for epoch in epochs
            ]
            for name, epochs in sorted(self._epochs.items())
        }

    # -- admission / release ---------------------------------------------

    def admit(self, name: str, *, tenant: Optional[str] = None) -> EpochLease:
        """Pin the active epoch of *name* for one request.

        The returned lease is the request's version contract: whatever
        swaps land later, this request scans (and is oracle-checked)
        against the pinned epoch's automaton.  ``tenant`` only labels
        the admission counter (the telemetry plane's per-tenant
        decomposition); it never affects which epoch is pinned.
        """
        epoch = self.active(name)
        epoch.refs += 1
        labels = {"pattern_set": name}
        if tenant is not None:
            labels["tenant"] = tenant
        self.metrics.counter(
            "epoch_admissions_total", "requests admitted onto an epoch"
        ).inc(**labels)
        return EpochLease(epoch)

    def release(self, lease: EpochLease) -> None:
        """Release a lease; retires a drained superseded epoch."""
        if lease.released:
            return
        lease.released = True
        epoch = lease.epoch
        epoch.refs -= 1
        if epoch.state is EpochState.DRAINING and epoch.refs == 0:
            self._retire(epoch)

    def _retire(self, epoch: Epoch) -> None:
        epoch.state = EpochState.RETIRED
        epoch.built = None  # frees the old STT
        self.metrics.counter(
            "epoch_retired_total", "superseded epochs fully drained"
        ).inc()
        self.tracer.event(
            "epoch_retired",
            pattern_set=epoch.name,
            version=epoch.version,
            epoch=epoch.epoch_id,
        )
        self._set_overlap_gauge(epoch.name)

    def _set_overlap_gauge(self, name: str) -> None:
        self.metrics.gauge(
            "epoch_overlap",
            "epochs of the last-touched rule set holding STTs",
        ).set(self.epoch_overlap(name))

    def built_for(self, epoch: Epoch) -> BuiltVersion:
        """The verified automaton of a leased epoch, self-healing.

        Re-checksums the epoch's table; call it before anything reads
        the table (a bind, a serial scan, a fallback).  A
        corrupted table is **rebuilt from the epoch's immutable registry
        record, not raised** — the same evict-and-rebuild degradation
        the :class:`~repro.serve.cache.AutomatonCache` applies — so a
        bit-rotted resident STT costs one rebuild, never a wrong match
        or a wedged digest.  Only leased (hence unretired) epochs may
        call this.
        """
        built = epoch.built
        if built is not None and not verify_row_checksums(
            built.dfa.stt.table, built.row_checksums
        ):
            return built
        built = DeltaBuilder.full(epoch.record.patterns)
        epoch.built = built
        self.metrics.counter(
            "epoch_corrupt_rebuilds_total",
            "epoch tables rebuilt after failing CRC verification",
        ).inc()
        self.tracer.event(
            "epoch_corrupt_rebuild",
            pattern_set=epoch.name,
            version=epoch.version,
            epoch=epoch.epoch_id,
        )
        return built

    # -- registration ----------------------------------------------------

    def register(
        self, name: str, patterns: Union[PatternSet, Sequence]
    ) -> Epoch:
        """Register and activate the first version of *name*.

        Registration is bootstrap, not a swap: there is no old epoch to
        keep serving, so no fault sites are poked and no swap report is
        recorded.  Use :meth:`swap` for everything after version 1.
        """
        if name in self._active:
            raise SwapError(
                f"{name!r} already has an active epoch; use swap() to "
                "change versions"
            )
        record = self.registry.register(name, patterns)
        built = DeltaBuilder.full(record.patterns)
        return self._commit(record, built)

    def _commit(self, record: VersionRecord, built: BuiltVersion) -> Epoch:
        """Activate *built* as the epoch serving *record* (the commit
        point: everything before this is abortable without trace)."""
        epoch = Epoch(self._next_epoch_id, record, built)
        self._next_epoch_id += 1
        old = self._active.get(record.name)
        self._active[record.name] = epoch
        self._epochs.setdefault(record.name, []).append(epoch)
        if old is not None:
            if old.refs > 0:
                old.state = EpochState.DRAINING
            else:
                self._retire(old)
        self._set_overlap_gauge(record.name)
        return epoch

    # -- the swap protocol -----------------------------------------------

    def swap(
        self,
        name: str,
        delta: Optional[Union[PatternDelta, bytes, bytearray]] = None,
        *,
        patterns: Optional[Union[PatternSet, Sequence]] = None,
    ) -> SwapReport:
        """Swap *name* to a new version; zero downtime, abort on fault.

        Exactly one update source must be given: ``delta`` (a
        :class:`~repro.core.delta.PatternDelta` or its serialized
        bytes, with lineage recorded) or ``patterns`` (a whole
        dictionary — a root version).  Either way the new dictionary is
        built from scratch under the ``rebuild`` watchdog.

        Returns the :class:`SwapReport`.  On a typed failure the swap
        is aborted — report recorded with ``aborted=True``, serving
        state untouched — and the error re-raised so callers can react.
        :class:`~repro.errors.OverlapBudgetError` is backpressure, not
        an abort: nothing was attempted, retry after a drain.
        """
        if (delta is None) == (patterns is None):
            raise SwapError("swap() needs exactly one of delta= or patterns=")
        old = self.active(name)
        if self.epoch_overlap(name) >= self.overlap_budget:
            self.metrics.counter(
                "epoch_swap_backpressure_total",
                "swaps refused by the overlap budget",
            ).inc()
            raise OverlapBudgetError(
                f"{name!r} already has {self.epoch_overlap(name)} epochs "
                f"holding tables (budget {self.overlap_budget}); drain "
                "in-flight batches before swapping again"
            )
        report = SwapReport(
            name=name,
            from_version=old.version,
            to_version=None,
            mode="full" if delta is None else "delta",
        )
        with self.tracer.span(
            "epoch_swap", pattern_set=name, from_version=old.version
        ) as sp:
            try:
                built, register = self._prepare(old, delta, patterns, report)
                self._verify(built, report)
            except SWAP_ABORT_ERRORS as exc:
                report.aborted = True
                report.error_type = type(exc).__name__
                report.rolled_back_to = old.version
                report.epoch_overlap = self.epoch_overlap(name)
                sp.set(aborted=True, error_type=report.error_type)
                self.swaps.append(report)
                self.metrics.counter(
                    "epoch_swap_aborts_total",
                    "swaps aborted by a typed fault (serving unchanged)",
                ).inc()
                raise
            # Past the verify gate: registering and committing cannot
            # take a typed abort, so the registry never carries a
            # version whose swap failed.
            epoch = self._commit(register(), built)
            report.to_version = epoch.version
            report.epoch_overlap = self.epoch_overlap(name)
            sp.set(
                to_version=epoch.version,
                mode=report.mode,
                rebuild_ms=report.rebuild_ms,
                verify_ms=report.verify_ms,
                epoch_overlap=report.epoch_overlap,
            )
        self.swaps.append(report)
        self.metrics.counter(
            "epoch_swaps_total", "committed epoch swaps"
        ).inc(mode=report.mode)
        self.metrics.gauge(
            "epoch_rebuild_ms", "last swap's automaton (re)build time"
        ).set(report.rebuild_ms)
        return report

    def _prepare(self, old, delta, patterns, report):
        """Build the incoming version aside.

        Returns ``(built, register)`` where *register* is the deferred
        registry write — called by :meth:`swap` only after the verify
        gate passes, so an aborted swap leaves no registry trace.
        Everything run here is abortable.
        """
        if delta is not None:
            if isinstance(delta, (bytes, bytearray)):
                blob = bytes(delta)
                fault = self._poke("delta_apply")
                if fault is not None:
                    blob = fault.mutate_blob(blob)
                delta = PatternDelta.from_bytes(blob)  # CRC gate
            else:
                fault = self._poke("delta_apply")
                if fault is not None:
                    # Round-trip through the wire format so the fault
                    # corrupts real serialized bytes and the CRC
                    # trailer — not a bespoke in-memory path.
                    delta = PatternDelta.from_bytes(
                        fault.mutate_blob(delta.to_bytes())
                    )
            report.churn = delta.churn
        elif not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        fault = self._poke("rebuild")
        t0 = time.perf_counter()
        if delta is None:
            built = DeltaBuilder.full(patterns)
        else:
            built = DeltaBuilder.apply(old.built, delta)
        report.rebuild_ms = (time.perf_counter() - t0) * 1e3
        report.dirty_rows = built.dfa.n_states
        if fault is not None and report.rebuild_ms / 1e3 > fault.deadline_seconds:
            raise KernelTimeoutError(
                f"rebuild of {len(built.patterns)} patterns took "
                f"{report.rebuild_ms:.1f} ms, over the "
                f"{fault.deadline_seconds * 1e3:.1f} ms swap watchdog"
            )
        if delta is None:

            def register():
                return self.registry.register(old.name, built.patterns)

        else:

            def register():
                return self.registry.derive(
                    old.name, delta, patterns=built.patterns
                )

        return built, register

    def _verify(self, built: BuiltVersion, report) -> None:
        """Checksum-gate the incoming table before the commit point."""
        t0 = time.perf_counter()
        fault = self._poke("swap_verify")
        table = built.dfa.stt.table
        if fault is not None:
            # Corrupt the *incoming* table (the one not yet serving);
            # verification below must catch it and abort the swap.
            table.setflags(write=True)
            try:
                fault.mutate_table(table)
            finally:
                table.setflags(write=False)
        bad = verify_row_checksums(table, built.row_checksums)
        report.verify_ms = (time.perf_counter() - t0) * 1e3
        if bad:
            raise IntegrityError(
                f"swapped-in automaton fails verification: rows {bad[:8]}"
                + ("..." if len(bad) > 8 else "")
                + " do not match their build-time CRC32"
            )

    def _poke(self, site: str):
        if self.injector is None:
            return None
        return self.injector.poke(site)

    # -- rollback --------------------------------------------------------

    def rollback(self, name: str) -> SwapReport:
        """Re-activate the content of the version before the current one.

        The recovery verb for "the new rules are bad, go back".  Like
        ``git revert``, rollback appends a **new** registry version
        carrying the predecessor's dictionary (history stays append-only
        and the head always equals what is serving — a later delta swap
        must derive from the serving rules, not the bad ones), builds
        it fresh, verifies, and commits; in-flight leases on the bad
        epoch drain exactly like any other swap.  Raises
        :class:`~repro.errors.SwapError` at version 1 (no predecessor).
        """
        old = self.active(name)
        if old.version <= 1:
            raise SwapError(
                f"{name!r} is at version 1; nothing to roll back to"
            )
        if self.epoch_overlap(name) >= self.overlap_budget:
            raise OverlapBudgetError(
                f"{name!r} has no overlap budget left to roll back into; "
                "drain in-flight batches first"
            )
        predecessor = self.registry.get(name, old.version - 1)
        report = SwapReport(
            name=name,
            from_version=old.version,
            to_version=None,
            mode="rollback",
            rolled_back_to=predecessor.version,
        )
        with self.tracer.span(
            "epoch_rollback",
            pattern_set=name,
            from_version=old.version,
            reverted_to=predecessor.version,
        ):
            t0 = time.perf_counter()
            built = DeltaBuilder.full(predecessor.patterns)
            report.rebuild_ms = (time.perf_counter() - t0) * 1e3
            report.dirty_rows = built.dfa.n_states
            self._verify(built, report)
            record = self.registry.register(name, predecessor.patterns)
            report.to_version = record.version
            self._commit(record, built)
        report.epoch_overlap = self.epoch_overlap(name)
        self.swaps.append(report)
        self.metrics.counter(
            "epoch_rollbacks_total", "explicit version rollbacks"
        ).inc()
        return report

    def describe(self) -> str:
        """Multi-line state dump for the CLI."""
        lines = []
        for name in self.registry.names:
            lines.append(self.registry.describe(name))
            for epoch in self._epochs.get(name, ()):
                lines.append(
                    f"     epoch #{epoch.epoch_id} v{epoch.version} "
                    f"{epoch.state.value} refs={epoch.refs}"
                )
        return "\n".join(lines) if lines else "(no pattern sets registered)"
