"""Pluggable STT gather backends (the `stt_backend` selector).

A scan names the table its δ-gather reads with one string, resolved by
:func:`resolve_backend`; every caller defaults to
:data:`DEFAULT_BACKEND`.  The compressed-table families plug into the
same gather loop as the two uncompressed layouts:

========== =========================================== ==================
backend    representation                              per-fetch cost
========== =========================================== ==================
 dense      ``(n, 257)`` int32 rows                    1 fetch
 compact    ``(n, n_used+1)`` + byte→class LUT         1 LUT + 1 fetch
 banded     per-row ``(default, lo, width)`` + band    1 fetch + 2 ALU
 bitmap     failure-delta bitmaps + popcount rank      walk × (popcount
                                                       + fetch)
========== =========================================== ==================

``dense`` and ``compact`` run the fused column-major step inside
:class:`~repro.core.tiled.GatherKernel`; ``banded`` and ``bitmap`` are
wrapped in *gather adapters* exposing the
``alloc(n)`` / ``step_into(state, symbols, out_row)`` protocol, which
the kernel dispatches to by duck typing.  Every backend is
byte-identical to the dense table for the automaton's transitions —
the differential harness (`tests/compress/test_backend_differential.py`)
proves it for match spans, counters, and per-tile state trajectories —
so backends differ **only** in modeled cost: texture working-set size
(footprint), extra ALU per fetch, and (bitmap only) the data-dependent
failure-chain walk, all reported via :class:`BackendCost` snapshots
that the kernel pricing layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

#: The canonical backend names, in increasing per-fetch cost order.
STT_BACKENDS = ("dense", "compact", "banded", "bitmap")

#: The backend every scan, cache, kernel and CLI defaults to.
DEFAULT_BACKEND = "compact"


def resolve_backend(stt_backend: str) -> str:
    """Validate a backend name: one of :data:`STT_BACKENDS`, else raise."""
    if stt_backend not in STT_BACKENDS:
        raise ReproError(
            f"unknown stt_backend {stt_backend!r}; "
            f"expected one of {', '.join(STT_BACKENDS)}"
        )
    return stt_backend


@dataclass(frozen=True)
class BackendCost:
    """Cost-model snapshot of one backend over one measured scan.

    ``footprint_ratio`` scales the modeled texture working set (a
    smaller resident table raises the texture hit rate — the whole
    point of compressing); ``avg_chain_steps`` is the measured mean
    failure-chain walk length per lookup (zero for every branch-free
    backend), which the pricing layer multiplies into the dependent
    fetch chain.
    """

    backend: str
    table_bytes: int
    dense_bytes: int
    lookups: int = 0
    chain_steps: int = 0

    @property
    def footprint_ratio(self) -> float:
        """Resident-table bytes over the dense table's bytes (≤ 1.0)."""
        if self.dense_bytes <= 0:
            return 1.0
        return min(1.0, self.table_bytes / self.dense_bytes)

    @property
    def avg_chain_steps(self) -> float:
        """Mean failure-chain steps per lookup (0.0 when branch-free)."""
        if self.lookups <= 0:
            return 0.0
        return self.chain_steps / self.lookups


class BandedGather:
    """Gather adapter over a :class:`~repro.compress.banded.BandedSTT`.

    Branch-free: the band test is two ALU ops per fetch and never
    touches a second row, so only ``lookups`` is accumulated.
    """

    backend = "banded"

    __slots__ = ("table", "lookups")

    def __init__(self, table) -> None:
        self.table = table
        self.lookups = 0

    def alloc(self, n_threads: int) -> None:
        """Protocol hook; the banded lookup allocates per call."""

    def step_into(
        self, state: np.ndarray, symbols: np.ndarray, out_row: np.ndarray
    ) -> None:
        """Advance ``state`` in place; mirror into ``out_row``."""
        res = self.table.next_states(state, symbols)
        self.lookups += int(state.size)
        np.copyto(state, res)
        out_row[...] = res

    def cost(self) -> BackendCost:
        """Snapshot for the kernel pricing layer."""
        stats = self.table.stats()
        return BackendCost(
            backend=self.backend,
            table_bytes=stats.compressed_bytes,
            dense_bytes=stats.dense_bytes,
            lookups=self.lookups,
        )


class BitmapGather:
    """Gather adapter over a :class:`~repro.compress.bitmap.BitmapDeltaSTT`.

    The lockstep walk is data-dependent: ``chain_steps`` counts every
    fail-link taken across all lanes, so ``cost().avg_chain_steps`` is
    the *exact* mean walk length of the measured scan — the quantity
    the bitmap backend's dependent-latency pricing multiplies in.
    """

    backend = "bitmap"

    __slots__ = ("table", "lookups", "chain_steps")

    def __init__(self, table) -> None:
        self.table = table
        self.lookups = 0
        self.chain_steps = 0

    def alloc(self, n_threads: int) -> None:
        """Protocol hook; the walk allocates per call."""

    def step_into(
        self, state: np.ndarray, symbols: np.ndarray, out_row: np.ndarray
    ) -> None:
        """Advance ``state`` in place via the bounded failure-chain walk."""
        res, steps = self.table.walk_next_states(state, symbols)
        self.lookups += int(state.size)
        self.chain_steps += steps
        np.copyto(state, res)
        out_row[...] = res

    def cost(self) -> BackendCost:
        """Snapshot for the kernel pricing layer."""
        stats = self.table.stats()
        return BackendCost(
            backend=self.backend,
            table_bytes=stats.compressed_bytes,
            dense_bytes=stats.dense_bytes,
            lookups=self.lookups,
            chain_steps=self.chain_steps,
        )


def build_gather_table(dfa, name: str):
    """The gather table/adapter for *name* over *dfa* (uncached).

    Returns ``None`` for ``dense`` (the kernel's fused dense tables),
    the cached :class:`~repro.core.compact.CompactSTT` for ``compact``,
    and a fresh adapter for the compressed families.  Most callers want
    :meth:`repro.core.dfa.DFA.gather_table`, which memoizes per DFA.

    The bitmap family needs the failure function, which the DFA does
    not retain — the automaton is rebuilt from the DFA's own pattern
    set (deterministic state numbering, so the rebuilt failure links
    index the existing table exactly).
    """
    name = resolve_backend(name)
    if name == "dense":
        return None
    if name == "compact":
        return dfa.compact_stt()
    if name == "banded":
        from repro.compress.banded import BandedSTT

        return BandedGather(BandedSTT.from_stt(dfa.stt))
    from repro.compress.bitmap import BitmapDeltaSTT
    from repro.core.automaton import AhoCorasickAutomaton

    ac = AhoCorasickAutomaton.build(dfa.patterns)
    return BitmapGather(BitmapDeltaSTT.from_automaton(ac, dfa=dfa))


def cost_of(dfa, table, name: str) -> BackendCost:
    """BackendCost for any resolved gather table (adapters included).

    ``dense`` and ``compact`` report footprint 1.0 *by definition*:
    the counter model's texture traffic has always been computed over
    the dense line layout for both (PR 5's invariance contract), so
    only the genuinely compressed families claim footprint relief.
    """
    if hasattr(table, "cost"):
        return table.cost()
    dense_bytes = dfa.stt.stats().bytes_total
    return BackendCost(
        backend=resolve_backend(name),
        table_bytes=dense_bytes,
        dense_bytes=dense_bytes,
    )
