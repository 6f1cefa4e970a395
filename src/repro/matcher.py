"""High-level convenience API: the class downstream users actually adopt.

:class:`Matcher` wraps the whole pipeline — pattern validation, phase-1
construction, matcher selection, streaming, persistence — behind the
interface of a typical multi-pattern-matching library (pyahocorasick,
hyperscan bindings):

    >>> m = Matcher(["he", "she", "his", "hers"])
    >>> m.count("ushers")
    3
    >>> [(m.pattern(pid), start, end) for start, end, pid in m.finditer("ushers")]
    [('she', 1, 4), ('he', 2, 4), ('hers', 2, 6)]

Backends: ``"serial"`` (the single-thread CPU scan,
:func:`repro.core.serial.scan_from`), ``"serial_mt"`` (thread-pool
chunk-parallel CPU scan — the honest multicore baseline, see
:mod:`repro.core.multicore`) and ``"gpu"`` (the paper's shared-memory
kernel on the simulated device — identical matches, plus modeled timing
on the result object).  All are interchangeable because every backend
is tested byte-exact against the oracle.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compress.backend import DEFAULT_BACKEND, resolve_backend
from repro.core.alphabet import BytesLike
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.multicore import check_workers
from repro.core.pattern_set import PatternSet
from repro.core.serial import match_serial
from repro.core.serialization import load_dfa_meta, save_dfa
from repro.core.streaming import StreamMatcher
from repro.errors import ReproError
from repro.obs import NULL_METRICS, NULL_TRACER

#: Valid backend names.
BACKENDS = ("serial", "serial_mt", "gpu")


def _check_backend(backend: str) -> None:
    """Raise on a backend name outside :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ReproError(f"unknown backend {backend!r}; choose from {BACKENDS}")


class Matcher:
    """Multi-pattern matcher over a fixed dictionary.

    Parameters
    ----------
    patterns:
        Sequence of str/bytes patterns, or an existing
        :class:`~repro.core.pattern_set.PatternSet`.
    backend:
        ``"serial"`` (default), ``"serial_mt"`` or ``"gpu"``.
    workers:
        Thread count for the ``serial_mt`` backend (0 → one per usable
        core); ignored by the other backends.  Anything but a
        non-negative ``int`` raises :class:`~repro.errors.ChunkingError`.
    case_insensitive:
        Lowercase the dictionary at build time and every scanned text
        at scan time (the standard single-case AC trick used by IDS
        engines; only ASCII letters fold).  Patterns that collide after
        folding ("He"/"he") are merged, first id wins.  The flag is
        persisted by :meth:`save` and restored by :meth:`load`.
    device:
        Optional persistent :class:`~repro.gpu.device.Device` for the
        ``gpu`` backend.  Default: a device created lazily on the
        first GPU scan and kept for the matcher's lifetime with the
        STT texture-bound exactly once, so repeat scans (and every
        packet batch of a stream) skip the rebind.  Kernels pair every
        allocation with a release, so a long-lived device can serve
        unboundedly many scans.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When set, every scan
        records a typed span tree (``scan`` → ``fold`` →
        ``copy_input``/``kernel_body``/...).  Default: the shared
        no-op tracer — instrumentation costs nothing.
    metrics:
        Optional :class:`~repro.obs.Metrics` registry.  When set, scans
        update the per-backend counters/histograms documented in
        docs/MODEL.md §7.
    profiler:
        Optional :class:`~repro.obs.KernelProfiler`.  When set, every
        ``gpu``-backend scan feeds its
        :class:`~repro.kernels.base.KernelResult` to the profiler,
        which joins counters + timing + occupancy into a validated
        :class:`~repro.obs.ProfileReport` (independent of ``metrics``
        — profiling works with the metrics registry absent).
    stt_backend:
        STT storage backend for the GPU backend's δ-gather: ``"dense"``,
        ``"compact"`` (default), ``"banded"``, or ``"bitmap"`` (see
        :mod:`repro.compress.backend`).  Every backend returns
        byte-identical matches (pinned by the differential harness);
        the compressed families trade per-fetch arithmetic for a
        smaller modeled texture working set.  The CPU backends always
        gather through the compact table.  The device holds the
        backend's gather arrays for the matcher's lifetime
        (``compact``: n_states × n_classes × 3 B below 2**16 states,
        × 5 B above), and a gpu scan's texture accounting keeps 4 B per
        lockstep cell (about 4 B per input byte, plus the chunk
        overlap) until the scan ends.
    """

    def __init__(
        self,
        patterns: Union[Sequence[BytesLike], PatternSet],
        *,
        backend: str = "serial",
        case_insensitive: bool = False,
        device=None,
        tracer=None,
        metrics=None,
        profiler=None,
        stt_backend: str = DEFAULT_BACKEND,
        workers: int = 0,
    ):
        _check_backend(backend)
        workers = check_workers(workers)
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        if case_insensitive:
            patterns = PatternSet.from_bytes(
                [p.lower() for p in patterns.as_bytes_list()]
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span(
            "build", n_patterns=len(patterns), backend=backend
        ) as sp:
            dfa = DFA.build(patterns)
            sp.set(n_states=dfa.n_states)
        self._setup(
            dfa, backend=backend, case_insensitive=case_insensitive,
            device=device, tracer=tracer, metrics=metrics, profiler=profiler,
            stt_backend=stt_backend, workers=workers,
        )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_dfa(
        cls,
        dfa: DFA,
        *,
        backend: str = "serial",
        case_insensitive: bool = False,
        device=None,
        tracer=None,
        metrics=None,
        profiler=None,
        stt_backend: str = DEFAULT_BACKEND,
        workers: int = 0,
    ) -> "Matcher":
        """Wrap a pre-built DFA (e.g. loaded from disk).

        ``case_insensitive`` must match the flag the DFA was *built*
        with (a folded dictionary plus unfolded scan texts would miss
        matches); :meth:`load` restores it from the artifact header.
        """
        _check_backend(backend)
        workers = check_workers(workers)
        obj = cls.__new__(cls)
        obj._setup(
            dfa, backend=backend, case_insensitive=case_insensitive,
            device=device, tracer=tracer, metrics=metrics, profiler=profiler,
            stt_backend=stt_backend, workers=workers,
        )
        return obj

    def _setup(
        self, dfa: DFA, *, backend, case_insensitive, device, tracer,
        metrics, profiler, stt_backend, workers,
    ) -> None:
        """Everything both constructors share once the DFA exists."""
        self._dfa = dfa
        self.backend = backend
        self.case_insensitive = case_insensitive
        self.device = device
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.profiler = profiler
        self.stt_backend = resolve_backend(stt_backend)
        self.workers = workers
        self.last_health = None
        self._resilient = None

    @classmethod
    def load(cls, path: str, *, backend: str = "serial") -> "Matcher":
        """Load a matcher persisted with :meth:`save`.

        Restores the ``case_insensitive`` build flag from the artifact
        header (v2; v1 artifacts predate the flag and load as
        case-sensitive).
        """
        meta = load_dfa_meta(path)
        return cls.from_dfa(
            meta.dfa, backend=backend, case_insensitive=meta.case_insensitive
        )

    def save(self, path: str) -> None:
        """Persist the compiled machine (see repro.core.serialization)."""
        save_dfa(self._dfa, path, case_insensitive=self.case_insensitive)

    # -- introspection ---------------------------------------------------------
    @property
    def dfa(self) -> DFA:
        """The underlying automaton."""
        return self._dfa

    @property
    def n_patterns(self) -> int:
        """Dictionary size."""
        return len(self._dfa.patterns)

    @property
    def n_states(self) -> int:
        """Automaton size."""
        return self._dfa.n_states

    def pattern(self, pattern_id: int, *, as_text: bool = True):
        """The pattern string/bytes for an id."""
        raw = self._dfa.patterns.pattern_bytes(pattern_id)
        return raw.decode("latin-1") if as_text else raw

    def _fold(self, text: BytesLike) -> BytesLike:
        if not self.case_insensitive:
            return text
        with self.tracer.span("fold"):
            if isinstance(text, str):
                return text.lower()
            if isinstance(text, (bytes, bytearray, memoryview)):
                return bytes(text).lower()
            # uint8 ndarray: fold ASCII uppercase in place-free form.
            import numpy as np

            arr = text.copy()
            upper = (arr >= 65) & (arr <= 90)
            arr[upper] += 32
            return arr

    # -- scanning ------------------------------------------------------------
    def scan(self, text: BytesLike, *, resilient: bool = False) -> MatchResult:
        """Scan *text*; returns the raw :class:`MatchResult`.

        With ``resilient=True`` the scan runs through a
        :class:`~repro.resilience.pipeline.ResilientMatcher` whose
        fallback chain starts at this matcher's backend: transient
        device failures are retried with backoff, persistent ones fall
        back toward the serial matcher, and the episode's
        :class:`~repro.resilience.pipeline.HealthReport` lands in
        :attr:`last_health`.
        """
        if resilient:
            rm = self._resilient_pipeline()
            result = rm.scan(text)
            self.last_health = rm.last_health
            return result
        t0 = time.perf_counter() if self.metrics.enabled else 0.0
        with self.tracer.span("scan", backend=self.backend) as sp:
            text = self._fold(text)
            if self.backend == "gpu":
                kr = self._run_gpu_kernel(text)
                self._observe_kernel(kr)
                result = kr.matches
            elif self.backend == "serial_mt":
                from repro.core.multicore import scan_multicore

                result = scan_multicore(
                    self._dfa, text, workers=self.workers
                ).matches
            else:
                result = match_serial(self._dfa, text)
            sp.set(matches=len(result))
        self._record_scan(result, len(text), t0)
        return result

    def _gpu_device(self):
        """The persistent device for GPU scans, texture pre-bound.

        Created lazily on the first GPU scan and kept on
        :attr:`device`, with this matcher's gather tables for its
        ``stt_backend`` bound to texture memory exactly once — repeat
        scans (and every packet of a :meth:`scan_packets` stream) reuse
        the binding instead of re-uploading the table per call
        (regression: every scan used to pay a fresh device + rebind).
        Callers that install their own device (the resilient pipeline
        swaps in a fresh one per GPU attempt) get the same one-time
        bind on it.  The device holds the bound copy the scans read;
        the DFA's host memo of the same tables is left unbuilt.
        """
        from repro.gpu.device import Device

        if self.device is None:
            self.device = Device(tracer=self.tracer)
        if self.device.texture is None:
            with self.tracer.span(
                "bind_texture", n_states=self._dfa.n_states
            ):
                self.device.bind_texture(self._dfa, self.stt_backend)
        return self.device

    def _run_gpu_kernel(self, text: BytesLike):
        """GPU-backend scan: device selection shared by every GPU path."""
        from repro.kernels.shared_mem import run_shared_kernel

        device = self._gpu_device()
        return run_shared_kernel(
            self._dfa,
            text,
            device,
            tracer=self.tracer,
            stt_backend=self.stt_backend,
        )

    def _observe_kernel(self, result) -> None:
        """Feed a KernelResult to the profiler and export gauges.

        The profiler feed is independent of the metrics gate: a
        profiler-only matcher still collects full
        :class:`~repro.obs.ProfileReport` bundles.
        """
        if self.profiler is not None:
            self.profiler.observe(result)
        if not self.metrics.enabled:
            return
        self.metrics.gauge(
            "kernel_modeled_seconds", "last modeled GPU kernel time"
        ).set(result.seconds)
        self.metrics.gauge(
            "texture_hit_rate", "last kernel's texture hit rate"
        ).set(result.counters.texture_hit_rate)
        self.metrics.gauge(
            "avg_conflict_degree", "last kernel's bank-conflict degree"
        ).set(result.counters.avg_conflict_degree)

    def _record_scan(
        self, result: MatchResult, n_bytes: int, t0: float
    ) -> None:
        """Update the per-backend scan counters/histograms."""
        if not self.metrics.enabled:
            return
        backend = self.backend
        self.metrics.counter(
            "scans_total", "scans completed"
        ).inc(backend=backend)
        self.metrics.counter(
            "scan_bytes_total", "input bytes scanned"
        ).inc(n_bytes, backend=backend)
        self.metrics.counter(
            "scan_matches_total", "matches returned"
        ).inc(len(result), backend=backend)
        self.metrics.histogram(
            "scan_seconds", "wall-clock scan latency"
        ).observe(time.perf_counter() - t0, backend=backend)

    def _resilient_pipeline(self):
        """The lazily built resilient wrapper sharing this automaton."""
        if self._resilient is None:
            from repro.resilience.pipeline import (
                DEFAULT_CHAIN,
                ResilientMatcher,
            )

            chain = (
                DEFAULT_CHAIN[DEFAULT_CHAIN.index(self.backend):]
                if self.backend in DEFAULT_CHAIN
                else DEFAULT_CHAIN
            )
            self._resilient = ResilientMatcher(
                self, chain=chain, tracer=self.tracer, metrics=self.metrics
            )
        return self._resilient

    def scan_with_timing(self, text: BytesLike):
        """GPU backend only: full KernelResult with modeled timing.

        Byte-exact with :meth:`scan`: the text goes through the same
        case fold and the same kernel/device selection, so a
        ``case_insensitive`` matcher reports identical matches on both
        paths (regression: the timing path used to skip the fold).
        """
        if self.backend != "gpu":
            raise ReproError("scan_with_timing requires the 'gpu' backend")
        t0 = time.perf_counter() if self.metrics.enabled else 0.0
        with self.tracer.span("scan", backend=self.backend, timing=True) as sp:
            text = self._fold(text)
            result = self._run_gpu_kernel(text)
            sp.set(matches=len(result.matches))
        self._observe_kernel(result)
        self._record_scan(result.matches, len(text), t0)
        return result

    def finditer(
        self, text: BytesLike
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(start, end_exclusive, pattern_id)`` per occurrence.

        Ordered by start, then end.  (End is exclusive, python-slice
        style, unlike the paper's inclusive end positions.)
        """
        result = self.scan(text)
        lengths = self._dfa.pattern_lengths
        triples = [
            (int(e) - int(lengths[p]) + 1, int(e) + 1, int(p))
            for e, p in zip(result.ends, result.pattern_ids)
        ]
        triples.sort()
        return iter(triples)

    def findall(self, text: BytesLike) -> List[Tuple[int, int, int]]:
        """List form of :meth:`finditer`."""
        return list(self.finditer(text))

    def count(self, text: BytesLike) -> int:
        """Total occurrences of any pattern."""
        return len(self.scan(text))

    def contains_any(self, text: BytesLike) -> bool:
        """True when at least one pattern occurs."""
        return self.count(text) > 0

    def count_by_pattern(self, text: BytesLike) -> List[int]:
        """Occurrence count per pattern id."""
        return self.scan(text).count_by_pattern(self.n_patterns).tolist()

    def find_first(
        self, text: BytesLike, *, chunk: int = 1 << 16
    ) -> Optional[Tuple[int, int, int]]:
        """First occurrence as ``(start, end, pattern_id)``, or None.

        Early-exit scan: the text is fed through a stream matcher in
        chunks and scanning stops at the first reporting chunk, so a
        hit near the front of a large buffer costs O(hit position),
        not O(len(text)) — the "any signature present?" fast path an
        AV engine wants.
        """
        folded = self._fold(text)
        from repro.core.alphabet import encode

        data = encode(folded, name="text")
        stream = StreamMatcher(self._dfa)
        lengths = self._dfa.pattern_lengths
        max_len = int(self._dfa.patterns.max_length)

        def best_of(hits):
            triples = [
                (int(e) - int(lengths[p]) + 1, int(e) + 1, int(p))
                for e, p in hits
            ]
            return min(triples) if triples else None

        best = None
        pos = 0
        n = int(data.size)
        while pos < n:
            hits = stream.feed(data[pos : pos + chunk])
            pos += chunk
            cand = best_of(hits)
            if cand is not None and (best is None or cand < best):
                best = cand
            if best is not None:
                # An earlier-starting match could still be in flight;
                # it must end before best_start + max_len.  Drain up to
                # that position, then the minimum is final.  When the
                # drain itself surfaces an earlier start the bound
                # tightens, so the limit is recomputed from the new
                # best instead of scanning to the stale one.
                limit = best[0] + max_len
                while pos < min(limit, n):
                    more = stream.feed(data[pos : pos + chunk])
                    pos += chunk
                    cand = best_of(more)
                    if cand is not None and cand < best:
                        best = cand
                        limit = best[0] + max_len
                return best
        return best

    def _split_by_offsets(
        self, result: MatchResult, offsets: np.ndarray
    ) -> List[MatchResult]:
        """Split a batch-buffer result into per-segment results.

        ``offsets`` is the ``(n_segments + 1,)`` cumulative boundary
        vector of the concatenated buffer.  A match belongs to the
        segment containing its *end*; matches whose start falls in an
        earlier segment straddle a seam between independent inputs and
        are dropped (they cannot occur when the segments are scanned
        separately).  Positions are rebased to be segment-local.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        n_segments = int(offsets.size) - 1
        if len(result) == 0:
            return [MatchResult.empty() for _ in range(n_segments)]
        lengths = self._dfa.pattern_lengths
        starts = result.ends - lengths[result.pattern_ids] + 1
        seg = np.searchsorted(offsets, result.ends, side="right") - 1
        keep = starts >= offsets[seg]
        out: List[MatchResult] = []
        for i in range(n_segments):
            mask = keep & (seg == i)
            out.append(
                MatchResult(
                    result.ends[mask] - offsets[i],
                    result.pattern_ids[mask],
                )
            )
        return out

    def scan_many(self, texts: Sequence[BytesLike]) -> List[MatchResult]:
        """Scan many independent texts; one result per text, in order.

        The GPU backend concatenates the (folded) texts into a single
        batch buffer, performs **one** device lifecycle — a single
        checksummed copy and the matcher's persistent texture binding —
        and one kernel pass, then splits the matches back per text with
        seam filtering (:meth:`_split_by_offsets`), so an occurrence
        spanning two adjacent texts in the buffer is never reported.
        Results are byte-exact with ``[self.scan(t) for t in texts]``;
        only the modeled cost differs.  CPU backends simply loop.
        """
        texts = list(texts)
        if not texts:
            return []
        with self.tracer.span(
            "scan_many", backend=self.backend, n_texts=len(texts)
        ) as sp:
            if self.backend != "gpu":
                results = [self.scan(t) for t in texts]
                sp.set(matches=sum(len(r) for r in results))
                return results
            from repro.core.alphabet import encode

            t0 = time.perf_counter() if self.metrics.enabled else 0.0
            arrays = [
                encode(self._fold(t), name="text") for t in texts
            ]
            offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
            np.cumsum([a.size for a in arrays], out=offsets[1:])
            total = int(offsets[-1])
            if total == 0:
                results = [MatchResult.empty() for _ in texts]
                sp.set(matches=0)
                return results
            batch = np.concatenate([a for a in arrays if a.size])
            kr = self._run_gpu_kernel(batch)
            self._observe_kernel(kr)
            results = self._split_by_offsets(kr.matches, offsets)
            sp.set(matches=sum(len(r) for r in results))
        self._record_scan(kr.matches, total, t0)
        return results

    def scan_packets(self, stream) -> dict:
        """Scan a :class:`~repro.workload.packets.PacketStream` batch.

        One kernel-style pass over the whole batch buffer — on the GPU
        backend this reuses the matcher's persistent device and its
        one-time texture binding, so a long stream of batches pays for
        exactly one STT upload (regression: the bind used to repeat
        per call) — then matches are mapped back per packet (the Gnort
        batching pattern).  Returns ``{packet_index: [(start, end,
        pattern_id), ...]}`` with packet-local positions; occurrences
        straddling packet boundaries are attributed to the packet
        owning their start and excluded if they cross into the next
        packet (payloads are independent).
        """
        result = self.scan(stream.payload)
        per_packet = self._split_by_offsets(result, stream.offsets)
        lengths = self._dfa.pattern_lengths
        out: dict = {}
        for pkt, matches in enumerate(per_packet):
            if len(matches) == 0:
                continue
            starts = matches.ends - lengths[matches.pattern_ids] + 1
            out[pkt] = [
                (int(s), int(e) + 1, int(p))
                for s, e, p in zip(
                    starts.tolist(),
                    matches.ends.tolist(),
                    matches.pattern_ids.tolist(),
                )
            ]
        return out

    def stream(self) -> StreamMatcher:
        """A fresh incremental matcher sharing this dictionary."""
        return StreamMatcher(self._dfa)

    def highlight(
        self, text: str, *, open_mark: str = "[", close_mark: str = "]"
    ) -> str:
        """Debugging aid: bracket every occurrence in *text*.

        Overlapping occurrences are merged into maximal covered spans.
        """
        spans = [(s, e) for s, e, _ in self.finditer(text)]
        if not spans:
            return text
        spans.sort()
        merged: List[List[int]] = [list(spans[0])]
        for s, e in spans[1:]:
            if s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        out: List[str] = []
        pos = 0
        for s, e in merged:
            out.append(text[pos:s])
            out.append(open_mark + text[s:e] + close_mark)
            pos = e
        out.append(text[pos:])
        return "".join(out)
