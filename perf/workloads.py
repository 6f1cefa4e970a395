"""The benchmark's four workloads: inputs, set-up, measured loop, checks.

Every workload is built from the benchmark seed and receives only the
generated inputs.  The dictionaries are the paper's fixed ones (seeded
with :data:`DICTIONARY_SEED`), so a seed varies the traffic, not the
automaton, and runs of different seeds measure the same system.

Inputs are generated before anything is timed.  Each bulk op scans a
fresh array assembled from a seeded choice of pool blocks, because
``repro.kernels.segcache`` memoizes whole scans by content digest: a
repeated input would time the memo, not the kernel.  Every op is
checked outside its timed region, and a failed check, a typed error or
a refused swap counts as a failed op.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro import DFA, Matcher, MatchResult, PatternSet
from repro.core.delta import PatternDelta
from repro.core.serial import match_serial_python
from repro.errors import OverlapBudgetError, ReproError
from repro.gpu.counters import EventCounters
from repro.kernels import segcache
from repro.serve import EpochManager, ScanScheduler
from repro.workload.corpus import MagazineCorpus
from repro.workload.datasets import DatasetFactory
from repro.workload.packets import generate_stream
from repro.workload.snort import generate_pattern_set

#: Seed of the fixed dictionaries and of the corpus vocabulary.
DICTIONARY_SEED = 2013

#: Worker threads of the ``serial_mt`` backend: one per usable core.
NPROC = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Every measured pass runs at least this many ops, whatever its budget.
MIN_OPS = 3

#: ``paper_gpu`` pins the modeled counters of its first this-many ops.
PIN_OPS = 3

#: Bytes of each bulk op re-scanned by the literal Fig. 2 loop.
CHECK_WINDOW = 32 * 1024

#: Failure messages kept per pass (the count is always exact).
MAX_PROBLEMS = 10


def _rss_mb() -> float:
    """Current resident set of this process (Linux), else its peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class HostProbe:
    """Interleaved probe of the host's current speed and memory.

    Other tenants of a shared host change its speed by up to 1.5x for
    minutes at a time, far more than any bound worth gating on.  The
    probe times a fixed pure-Python loop that no code under test can
    change.  An end-to-end timing is reported scaled by
    :attr:`REFERENCE_S` over the mean of the two probe samples around
    it, i.e. in the units it would read on the reference host at its
    usual speed.  On the reference host this cut the run-to-run spread
    of bulk-op latency from 10-13% to 3-6%.  Each sample also records
    the resident set size.
    """

    LOOPS = 30_000
    #: The probe's time on the reference host (2-core VM) when quiet.
    REFERENCE_S = 0.0020

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []
        self.rss_mb: List[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)
        self.rss_mb.append(_rss_mb())

    def scale_at(self, t: float) -> float:
        """Scale for a timing that ended at *t* (between two samples)."""
        j = bisect.bisect_right(self.times, t) - 1
        j = min(max(j, 0), len(self.samples) - 2)
        return self.REFERENCE_S / ((self.samples[j] + self.samples[j + 1]) / 2)

    def speed(self) -> float:
        """Reference time over the median sample (< 1: the host ran slow)."""
        return self.REFERENCE_S / float(np.median(self.samples))


@dataclass
class Measurement:
    """What one measured pass saw.

    Timings are host wall-clock; the ``scaled_*`` fields are the same
    timings scaled to the reference host's speed by a :class:`HostProbe`.
    ``modeled_gbps`` and ``digest`` come from the simulator.
    """

    serving: bool = False
    latencies_ms: List[float] = field(default_factory=list)
    scaled_latencies_ms: List[float] = field(default_factory=list)
    #: Window of each latency sample; quantiles are per window, then
    #: the median over windows.
    latency_windows: List[int] = field(default_factory=list)
    ops_per_s: float = 0.0
    scaled_ops_per_s: float = 0.0
    host_speed: float = 1.0
    rss_mb: float = 0.0
    busy_s: float = 0.0
    n_ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    batches: int = 0
    bytes: int = 0
    matches: int = 0
    segcache_hits: int = 0
    modeled_gbps: float = 0.0
    digest: Optional[str] = None
    queue_wait_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    swap_ms: List[float] = field(default_factory=list)
    swap_reports: list = field(default_factory=list)
    backpressure: int = 0
    next_op: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def latency(self, q: float, *, scaled: bool = True) -> float:
        """Quantile *q* of the latencies: the median over windows of
        each window's quantile."""
        values = self.scaled_latencies_ms if scaled else self.latencies_ms
        windows: Dict[int, List[float]] = {}
        for w, v in zip(self.latency_windows, values):
            windows.setdefault(w, []).append(v)
        if not windows:
            return 0.0
        return float(np.median([np.quantile(v, q) for v in windows.values()]))

    def scale(self, probe: HostProbe, ends: List[float], rates) -> None:
        """Fill the scaled fields; *ends* are the latencies' end times,
        *rates* the ``(ops per second, end time)`` throughput samples."""
        self.scaled_latencies_ms = [
            v * probe.scale_at(t) for v, t in zip(self.latencies_ms, ends)
        ]
        if rates:
            self.ops_per_s = float(np.median([r for r, _ in rates]))
            self.scaled_ops_per_s = float(
                np.median([r / probe.scale_at(t) for r, t in rates])
            )
        self.host_speed = probe.speed()
        self.rss_mb = float(np.median(probe.rss_mb))


def _stream_seed(seed: int, tag: int) -> int:
    return int(np.random.default_rng([seed, tag]).integers(2**31))


def _factory(smoke: bool) -> DatasetFactory:
    corpus = MagazineCorpus(
        DICTIONARY_SEED, vocabulary_size=2_000 if smoke else 20_000
    )
    return DatasetFactory(seed=DICTIONARY_SEED, corpus=corpus)


class BlockPool:
    """Fresh bulk inputs cut from one generated text pool.

    Op ``i`` concatenates a seeded choice of distinct pool blocks, so
    every op scans a new array with its own content digest at the cost
    of one copy instead of a text generation.
    """

    def __init__(self, pool: np.ndarray, block: int, size: int, seed: int):
        self.pool = pool
        self.block = block
        self.size = size
        self.seed = seed
        self.n_blocks = pool.size // block
        self.per_op = -(-size // block)

    def _assemble(self, key) -> np.ndarray:
        rng = np.random.default_rng([self.seed, *key])
        picks = rng.choice(self.n_blocks, size=self.per_op, replace=False)
        out = np.empty(self.size, dtype=np.uint8)
        for k, b in enumerate(picks.tolist()):
            lo = k * self.block
            n = min(self.block, self.size - lo)
            out[lo : lo + n] = self.pool[b * self.block : b * self.block + n]
        return out

    def op(self, i: int) -> np.ndarray:
        """The input of measured op *i*."""
        return self._assemble((0, i))

    def warm(self, k: int) -> np.ndarray:
        """The untimed warm-up input of set-up *k*."""
        return self._assemble((1, k))


def _window_ok(dfa: DFA, text: np.ndarray, got: MatchResult, seed) -> bool:
    """Compare *got* with the Fig. 2 loop on a seeded window of *text*."""
    width = min(CHECK_WINDOW, text.size)
    w0 = int(np.random.default_rng(seed).integers(0, text.size - width + 1))
    expect = match_serial_python(dfa, text[w0 : w0 + width])
    starts = got.ends - dfa.pattern_lengths[got.pattern_ids] + 1
    inside = (starts >= w0) & (got.ends < w0 + width)
    have = list(
        zip((got.ends[inside] - w0).tolist(), got.pattern_ids[inside].tolist())
    )
    return have == expect


class _Bulk:
    """Shared loop of the bulk workloads: scan fresh inputs back to back.

    A subclass's ``_op`` returns ``(matches, timings, context)``:
    ``timings[0]`` is the latency sample, ``timings[-1]`` the sample of
    the throughput path, and ``context`` goes to its ``_check``.
    """

    name = ""
    tag = 0

    def __init__(self, seed: int, corpus, patterns: PatternSet, sizes):
        slice_bytes, block, pool_bytes = sizes
        self.seed = seed
        self.patterns = patterns
        pool = corpus.generate_array(
            pool_bytes, stream_seed=_stream_seed(seed, self.tag)
        )
        self.inputs = BlockPool(
            pool, block, slice_bytes, _stream_seed(seed, self.tag + 1)
        )
        self.warm = [self.inputs.warm(k) for k in range(SETUP_REPEATS)]
        # The checker builds its own automaton; the system under test
        # never sees it.
        self.check_dfa = DFA.build(patterns)

    def states(self) -> int:
        """States of the workload's automaton (its checker's twin)."""
        return self.check_dfa.n_states

    def measure(self, system, seconds: float, rec, start: int) -> Measurement:
        m = Measurement()
        probe = HostProbe()
        hits_before = segcache.CACHE.hits
        deadline = perf_counter() + seconds
        i = start
        ends, rates = [], []
        while i - start < MIN_OPS or perf_counter() < deadline:
            text = self.inputs.op(i)
            probe.sample()
            m.attempted += 1
            try:
                with rec.root(f"{self.name}.op", i):
                    got, timings, context = self._op(system, text)
            except ReproError as exc:
                m.fail(f"op {i}: {type(exc).__name__}: {exc}")
                i += 1
                continue
            end = perf_counter()
            probe.sample()
            m.n_ops += 1
            m.busy_s += sum(timings)
            m.latencies_ms.append(timings[0] * 1e3)
            m.latency_windows.append(0)
            ends.append(end)
            # Medians of per-op rates resist bursts on a shared host.
            rates.append((1.0 / timings[-1], end))
            m.bytes += int(text.size)
            m.matches += len(got)
            self._check(text, got, context, i, m)
            i += 1
        m.scale(probe, ends, rates)
        m.segcache_hits = segcache.CACHE.hits - hits_before
        m.next_op = i
        return m


class CorpusSerial(_Bulk):
    """2 MB magazine slices against the paper's 1,000-pattern dictionary.

    Each slice is scanned by ``serial`` (timed: the latency metrics)
    and then by ``serial_mt`` on one thread per core (timed:
    ``ops_per_s``).  Dense matches make extraction and canonicalization
    a large share of the scan, and this is the cell where ``serial_mt``
    loses to ``serial`` on small hosts.
    """

    name = "corpus_serial"
    tag = 11

    def __init__(self, seed: int, smoke: bool, seconds: float):
        factory = _factory(smoke)
        sizes = (
            (128 * 1024, 16 * 1024, 1 << 20)
            if smoke
            else (2_000_000, 64 * 1024, 4 << 20)
        )
        patterns = factory.patterns_for(200 if smoke else 1_000)
        super().__init__(seed, factory.corpus, patterns, sizes)

    def setup(self, k: int):
        serial = Matcher(self.patterns, backend="serial")
        mt = Matcher(self.patterns, backend="serial_mt", workers=NPROC)
        serial.scan(self.warm[k])
        mt.scan(self.warm[k])
        return serial, mt

    def _op(self, system, text):
        serial, mt = system
        t0 = perf_counter()
        got = serial.scan(text)
        t1 = perf_counter()
        got_mt = mt.scan(text)
        t2 = perf_counter()
        return got, (t1 - t0, t2 - t1), got_mt

    def _check(self, text, got, got_mt, i, m: Measurement) -> None:
        if got_mt != got:
            m.fail(f"op {i}: serial_mt found {len(got_mt)} matches, serial {len(got)}")
        elif not _window_ok(self.check_dfa, text, got, [self.seed, self.tag, i]):
            m.fail(f"op {i}: serial differs from the Fig. 2 loop")


class PaperGpu(_Bulk):
    """1 MB magazine slices against the paper's 20,000-pattern dictionary
    through ``Matcher(backend="gpu").scan_with_timing``.

    Host time here is simulator cost (texture-line accounting, pricing,
    the per-scan texture verification), which bounds the paper-scale
    grid.  The summed modeled counters of the first :data:`PIN_OPS`
    ops are digested so that simulator drift is caught.
    """

    name = "paper_gpu"
    tag = 23

    def __init__(self, seed: int, smoke: bool, seconds: float):
        factory = _factory(smoke)
        sizes = (
            (64 * 1024, 16 * 1024, 1 << 20)
            if smoke
            else (1_000_000, 64 * 1024, 4 << 20)
        )
        patterns = factory.patterns_for(1_000 if smoke else 20_000)
        super().__init__(seed, factory.corpus, patterns, sizes)
        self.checker = Matcher.from_dfa(self.check_dfa, backend="serial")
        self._pinned = EventCounters()
        self._pinned_seconds = 0.0
        self._pinned_bytes = 0

    def setup(self, k: int):
        gpu = Matcher(self.patterns, backend="gpu")
        gpu.scan_with_timing(self.warm[k])
        return gpu

    def _op(self, system, text):
        t0 = perf_counter()
        kr = system.scan_with_timing(text)
        return kr.matches, (perf_counter() - t0,), kr

    def _check(self, text, got, kr, i, m: Measurement) -> None:
        if i < PIN_OPS:
            self._pinned.add(kr.counters)
            self._pinned_seconds += kr.seconds
            self._pinned_bytes += int(text.size)
        if self.checker.scan(text) != got:
            m.fail(f"op {i}: gpu differs from the serial backend")
        elif not _window_ok(self.check_dfa, text, got, [self.seed, self.tag, i]):
            m.fail(f"op {i}: gpu differs from the Fig. 2 loop")

    def measure(self, system, seconds, rec, start):
        m = super().measure(system, seconds, rec, start)
        if m.segcache_hits:
            m.fail(f"{m.segcache_hits} measured scans were served by the segment cache")
        if start == 0 and self._pinned_seconds:
            doc = dataclasses.asdict(self._pinned)
            doc["modeled_seconds"] = repr(self._pinned_seconds)
            m.digest = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()
            ).hexdigest()[:16]
            m.modeled_gbps = self._pinned_bytes * 8 / self._pinned_seconds / 1e9
        return m


@dataclass
class _ServingSystem:
    sched: ScanScheduler
    epochs: Optional[EpochManager] = None
    version: int = 0
    next_swap: float = 0.0


class _Serving:
    """Shared load loop of the serving workloads.

    Phase 1 is an open loop: requests fall due at :attr:`RATE` per
    second whatever the system does, each is timed from when it was due,
    and the loop drains greedily (everything pending, after submitting
    everything due).  Phase 2 is a closed loop of full
    :attr:`BATCH`-request batches, whose rate is the capacity.
    """

    RATE = 100.0
    BATCH = 32
    OPEN_SHARE = 0.6
    SWAP_INTERVAL = 0.5
    PROBE_INTERVAL = 0.25
    RULES_NAME = "rules"
    tag = 0
    churn = False

    def __init__(self, seed: int, smoke: bool, seconds: float):
        self.seed = seed
        n_rules = 200 if smoke else 2_000
        n_packets = 2_000 if smoke else 20_000
        self.swap_interval = self.SWAP_INTERVAL / 2 if smoke else self.SWAP_INTERVAL
        # Each measured phase swaps at most once per interval, plus one
        # after its last step.
        max_swaps = int(seconds / self.swap_interval) + 8 if self.churn else 0
        touch = max(n_rules // 200, 1)
        rules = generate_pattern_set(
            n_rules + touch * max_swaps, seed=DICTIONARY_SEED
        ).as_bytes_list()
        rng = np.random.default_rng([seed, self.tag])
        # Deltas of 1% churn chained from the base version: each removes
        # `touch` live rules and adds `touch` never-seen ones.
        self.versions: List[List[bytes]] = [rules[:n_rules]]
        self.deltas: List[PatternDelta] = []
        fresh = iter(rules[n_rules:])
        for _ in range(max_swaps):
            current = self.versions[-1]
            gone = {current[j] for j in rng.choice(len(current), touch, replace=False)}
            added = [next(fresh) for _ in range(touch)]
            self.deltas.append(PatternDelta(tuple(added), tuple(sorted(gone))))
            self.versions.append([p for p in current if p not in gone] + added)
        self.rules = PatternSet.from_bytes(self.versions[0])
        attacks = [
            b"GET /" + p + b" HTTP/1.1\r\n\r\n"
            for p in rng.choice(np.array(rules, dtype=object), 200)
        ]
        stream = generate_stream(
            n_packets, attacks, attack_rate=0.05, seed=_stream_seed(seed, self.tag)
        )
        self.packets = [stream.packet(i) for i in range(n_packets)]
        self.warm = [b"GET /warm-up-%d HTTP/1.1\r\n\r\n" % k for k in range(SETUP_REPEATS)]
        self._next_request = 0
        self._next_step = 0
        self._oracle_dfas: Dict[int, DFA] = {}

    def states(self) -> int:
        """States of the base rule version's automaton."""
        return self._oracle_dfa(0).n_states

    # -- driving ---------------------------------------------------------

    def _submit(self, system, packet: bytes):
        raise NotImplementedError

    def _step(self, system, rec, m: Measurement, requests) -> list:
        """Submit *requests* (``(due, request id)``) and drain; the
        served ``(request id, version, due, submitted, ticket)``."""
        out = []
        with rec.root("serve.step", self._next_step):
            t0 = perf_counter()
            for due, r in requests:
                submitted = perf_counter()
                ticket = self._submit(system, self.packets[r % len(self.packets)])
                out.append((r, system.version, due, submitted, ticket))
            system.sched.drain()
            m.busy_s += perf_counter() - t0
        self._next_step += 1
        return out

    def _maybe_swap(self, system, rec, m: Measurement) -> None:
        now = perf_counter()
        if not self.churn or now < system.next_swap or system.version >= len(self.deltas):
            return
        system.next_swap += self.swap_interval
        if system.next_swap < now:
            system.next_swap = now + self.swap_interval
        m.attempted += 1
        delta = self.deltas[system.version]
        try:
            with rec.root("serve.swap", self._next_step):
                t0 = perf_counter()
                report = system.epochs.swap(self.RULES_NAME, delta)
                m.swap_ms.append((perf_counter() - t0) * 1e3)
        except OverlapBudgetError as exc:
            m.backpressure += 1
            m.fail(f"swap to v{system.version + 2} refused: {exc}")
            return
        except ReproError as exc:
            m.fail(f"swap to v{system.version + 2}: {type(exc).__name__}: {exc}")
            return
        finally:
            self._next_step += 1
        m.swap_reports.append(report)
        system.version += 1

    def _collect(self, served, m: Measurement, results, ends=None, t0=0.0) -> None:
        """Resolve served tickets.  Given *ends*, the open-loop latencies
        (due to done) go to *m* and their end times to *ends*.

        Latencies are grouped into windows of one swap interval by due
        time.  Each window holds one swap on rule_churn, and the median
        over windows keeps one window that met a garbage-collector pause
        from moving the tail.
        """
        for r, version, due, submitted, ticket in served:
            m.attempted += 1
            try:
                result = ticket.result()
            except ReproError as exc:
                m.fail(f"request {r}: {type(exc).__name__}: {exc}")
                continue
            m.n_ops += 1
            m.bytes += ticket.request.n_bytes
            m.matches += len(result)
            m.queue_wait_ms.append(ticket.queue_wait_seconds * 1e3)
            if ends is not None:
                m.late_ms.append((submitted - due) * 1e3)
                m.latencies_ms.append((ticket.completed_at - due) * 1e3)
                m.latency_windows.append(int((due - t0) / self.swap_interval))
                ends.append(ticket.completed_at)
            # Keep plain tuples of ints only: what the benchmark holds
            # must not slow the system's garbage collector.
            lease = ticket.request.lease
            results.append((
                r,
                version,
                None if lease is None else lease.epoch.version,
                tuple(result.as_pairs()),
            ))

    def measure(self, system, seconds: float, rec, start: int) -> Measurement:
        m = Measurement(serving=True)
        batches_before = len(system.sched.reports)
        results: list = []
        ends, rates = [], []
        probe = HostProbe()
        probe.sample()
        open_s = seconds * self.OPEN_SHARE

        # Phase 1: open loop at RATE, timed from each request's due time.
        n_due = max(int(open_s * self.RATE), MIN_OPS)
        t0 = perf_counter() + 1e-3
        system.next_swap = t0 + self.swap_interval
        next_probe = t0 + self.PROBE_INTERVAL
        i = 0
        while i < n_due:
            now = perf_counter()
            if t0 + i / self.RATE > now:
                time.sleep(t0 + i / self.RATE - now)
                continue
            requests = []
            while i < n_due and t0 + i / self.RATE <= now:
                requests.append((t0 + i / self.RATE, self._next_request))
                self._next_request += 1
                i += 1
            self._collect(self._step(system, rec, m, requests), m, results, ends, t0)
            self._maybe_swap(system, rec, m)
            if perf_counter() >= next_probe:
                probe.sample()
                next_probe += self.PROBE_INTERVAL
        probe.sample()

        # Phase 2: closed loop of full batches.  The rate is the median
        # over windows of one swap interval, so every window pays for
        # one swap on rule_churn while a burst on a shared host moves
        # only its own window.
        t0 = window_start = perf_counter()
        deadline = t0 + seconds - open_s
        system.next_swap = t0 + self.swap_interval
        window = 0
        while not rates or perf_counter() < deadline:
            requests = [
                (None, self._next_request + j) for j in range(self.BATCH)
            ]
            self._next_request += self.BATCH
            self._collect(self._step(system, rec, m, requests), m, results)
            window += self.BATCH
            self._maybe_swap(system, rec, m)
            now = perf_counter()
            if now - window_start >= self.swap_interval:
                rates.append((window / (now - window_start), now))
                probe.sample()
                window_start, window = perf_counter(), 0

        m.scale(probe, ends, rates)
        m.batches = len(system.sched.reports) - batches_before
        self._check(results, m)
        m.next_op = self._next_request
        return m

    # -- checking --------------------------------------------------------

    def _oracle_dfa(self, version: int) -> DFA:
        """A fresh build of rule version *version*, owned by the checker.

        Only the latest version asked for is kept: results are checked
        in admission order, so versions only move forward.
        """
        if version not in self._oracle_dfas:
            self._oracle_dfas.clear()
            self._oracle_dfas[version] = DFA.build(
                PatternSet.from_bytes(self.versions[version])
            )
        return self._oracle_dfas[version]

    def _check(self, results, m: Measurement) -> None:
        for r, version, admitted, pairs in results:
            packet = self.packets[r % len(self.packets)]
            expect = match_serial_python(self._oracle_dfa(version), packet)
            if list(pairs) != expect:
                m.fail(f"request {r}: matches differ from the Fig. 2 loop on v{version + 1}")
            if admitted is not None and admitted != version + 1:
                m.fail(f"request {r}: admitted under v{admitted}, expected v{version + 1}")


class PacketServe(_Serving):
    """Anonymous ``submit(patterns, packet)`` of ~65 B packets against
    2,000 synthetic snort content rules.

    Requests are tiny, so per-request and per-batch overheads dominate
    and the scan engine does almost nothing: the opposite of the bulk
    workloads.
    """

    name = "packet_serve"
    tag = 37

    def setup(self, k: int):
        sched = ScanScheduler(backend="gpu", clock=perf_counter)
        sched.submit(self.rules, self.warm[k])
        sched.drain()
        return _ServingSystem(sched)

    def _submit(self, system, packet: bytes):
        return system.sched.submit(self.rules, packet)


class RuleChurn(_Serving):
    """The same rules and packets through ``submit_named``, with a 1%
    churn delta swapped in on the serving thread every 0.5 s.

    Rule writes run beside reads, and the named path skips the
    per-request pattern-set digest: a submit-path gain should leave
    this workload unchanged, a delta-build gain should show only here.
    """

    name = "rule_churn"
    tag = 41
    churn = True

    def setup(self, k: int):
        epochs = EpochManager()
        epochs.register(self.RULES_NAME, self.rules)
        sched = ScanScheduler(backend="gpu", epochs=epochs, clock=perf_counter)
        sched.submit_named(self.RULES_NAME, self.warm[k])
        sched.drain()
        return _ServingSystem(sched, epochs)

    def _submit(self, system, packet: bytes):
        return system.sched.submit_named(self.RULES_NAME, packet)


WORKLOADS = {
    cls.name: cls for cls in (CorpusSerial, PaperGpu, PacketServe, RuleChurn)
}
