"""Serving layer: batched, pipelined, cached scan scheduling + hot-swap.

The library's scan path is one-shot: build an automaton, bind it,
scan a text.  A serving front end amortizes all three across many
concurrent requests — :class:`AutomatonCache` memoizes compiled
automata by content digest, and :class:`ScanScheduler` fuses queued
requests per dictionary into single kernel batches driven through a
modeled dual-stream copy/compute pipeline (docs/MODEL.md §8).

    >>> from repro.core import PatternSet
    >>> from repro.serve import ScanScheduler
    >>> rules = PatternSet.from_strings(["he", "she"])  # digested once
    >>> s = ScanScheduler()
    >>> t1 = s.submit(rules, "ushers")
    >>> t2 = s.submit(rules, "checkers")
    >>> len(t1.result()), len(t2.result())
    (2, 1)

Rule sets evolve while the service runs: :class:`PatternSetRegistry`
versions each named dictionary (content-addressed, with delta lineage)
and :class:`EpochManager` hot-swaps automaton versions with zero
downtime — in-flight batches finish on the epoch they were admitted
under, new submissions take the new one, and any fault mid-swap aborts
back to the last good epoch (docs/MODEL.md §10).
"""

from repro.serve.cache import (
    AutomatonCache,
    CacheEntry,
    pattern_set_digest,
)
from repro.serve.epoch import (
    Epoch,
    EpochLease,
    EpochManager,
    EpochState,
    SwapReport,
)
from repro.serve.registry import PatternSetRegistry, VersionRecord
from repro.serve.scheduler import (
    BatchReport,
    PipelineTiming,
    SCHEDULER_BACKENDS,
    ScanRequest,
    ScanScheduler,
    ScanTicket,
)

__all__ = [
    "AutomatonCache",
    "BatchReport",
    "CacheEntry",
    "Epoch",
    "EpochLease",
    "EpochManager",
    "EpochState",
    "PatternSetRegistry",
    "PipelineTiming",
    "SCHEDULER_BACKENDS",
    "ScanRequest",
    "ScanScheduler",
    "ScanTicket",
    "SwapReport",
    "VersionRecord",
]
