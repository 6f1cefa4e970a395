"""Device facade: binds the pieces of the substrate together.

A :class:`Device` owns a :class:`~repro.gpu.config.DeviceConfig` and
provides the operations a CUDA host program performs in the paper's
workflow: allocate/free global memory, copy data to the device, bind
the STT to texture memory, and launch a kernel (price a
:class:`~repro.gpu.latency.KernelCost`).

The functional side of "running" a kernel (producing matches) is done
by the kernel modules themselves; the Device is the accounting
authority — it validates launches against hardware limits and converts
costs into a :class:`~repro.gpu.counters.TimingBreakdown`.

Integrity and fault injection
-----------------------------
The device is also where the resilience layer hooks in
(:mod:`repro.resilience`): every state-changing operation exposes a
named **injection site** ("alloc", "copy_input", "bind_texture",
"launch", "timeout").  When an injector is attached (see
:attr:`Device.injector`) it may return a typed fault at a site; the
device then behaves exactly as the real failure would — raising
:class:`~repro.errors.DeviceError`/:class:`~repro.errors.LaunchError`/
:class:`~repro.errors.KernelTimeoutError`, or corrupting the
device-resident copy of a buffer.  Corruption is *detectable* because
the device checksums what it receives: the modeled host→device copy
verifies a CRC32 over the staged bytes, and the texture binding is a
device-owned copy of exactly the gather arrays the launch's STT
backend reads, with one CRC32 per 64 KiB block
(:func:`repro.core.integrity.block_checksums`) that
:meth:`verify_texture` re-checks before every launch.  Every kernel,
PFAC included, gathers through that copy, so a flipped bit is either
caught or read.  Without an injector every hook is a no-op.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.compress.backend import (
    GatherArray,
    device_gather_table,
    resolve_backend,
)
from repro.core.integrity import (
    BLOCK_BYTES,
    block_checksums,
    crc32_bytes,
    verify_block_checksums,
)
from repro.core.tiled import tile_state_dtype
from repro.errors import (
    DeviceError,
    IntegrityError,
    KernelTimeoutError,
    LaunchError,
)
from repro.gpu.config import DeviceConfig, gtx285
from repro.gpu.counters import TimingBreakdown
from repro.gpu.geometry import LaunchConfig
from repro.gpu.latency import KernelCost, estimate_time, h2d_copy_seconds


@dataclass(frozen=True)
class TextureBinding:
    """An automaton resident in texture memory.

    ``bytes_total`` is the modeled footprint: the dense STT's bytes,
    the table the paper uploads, whichever ``stt_backend``'s gather
    arrays the device holds (so no modeled number depends on it).
    """

    n_states: int
    bytes_total: int
    stt_backend: str

    @property
    def megabytes(self) -> float:
        """Texture footprint in MiB."""
        return self.bytes_total / 2**20


@dataclass(frozen=True)
class _Resident:
    """A binding's device-owned gather arrays and their block CRCs."""

    dfa: Any  # weakref.ref to the bound DFA
    n_states: int
    table: Any  # what GatherKernel reads: fused triple or adapter
    arrays: Tuple[GatherArray, ...]
    crcs: Tuple[np.ndarray, ...]

    def describe(self, array: GatherArray, block: int) -> str:
        """``name block k (range)`` for one bad block of *array*."""
        data = array.data
        per = BLOCK_BYTES // data.itemsize
        lo = block * per
        hi = min(lo + per, data.size) - 1  # last element, inclusive
        if array.index == "class":
            n = self.n_states
            (c0, s0), (c1, s1) = divmod(lo, n), divmod(hi, n)
            span = f"class {c0} state {s0} to class {c1} state {s1}"
        elif array.index == "byte":
            span = f"bytes {lo}-{hi}"
        else:
            if array.index == "entry":
                (offsets,) = (a.data for a in self.arrays if a.name == "offsets")
                s0, s1 = np.searchsorted(offsets, [lo, hi], side="right") - 1
            else:
                row = data.size // max(data.shape[0], 1)
                s0, s1 = lo // row, hi // row
            span = f"states {s0}-{s1}"
        return f"{array.name} block {block} ({span})"


@dataclass(frozen=True)
class DeviceEvent:
    """A point on a stream's modeled timeline (``cudaEventRecord``).

    ``seconds`` is the modeled time at which every operation enqueued
    on the recording stream before the event has completed.  Another
    stream that :meth:`Stream.wait_event`\\ s on it will not start any
    later work before that time — the standard cross-stream dependency
    primitive a double-buffered pipeline is built from.
    """

    name: str
    stream: str
    seconds: float


@dataclass(frozen=True)
class StreamOp:
    """One operation on a stream's modeled timeline (for inspection)."""

    kind: str  # "copy_h2d" | "kernel" | "wait"
    name: str
    t_start: float
    t_end: float
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        """Modeled duration of the operation."""
        return self.t_end - self.t_start


class Stream:
    """A modeled in-order command queue on a :class:`Device`.

    Real CUDA streams are what make copy/compute overlap possible: work
    issued to different streams may run concurrently, while work within
    one stream is strictly ordered.  The simulated form keeps a
    *cursor* — the modeled time at which the stream next becomes idle —
    and advances it by the priced duration of each enqueued operation.
    Cross-stream ordering is expressed with :meth:`record_event` /
    :meth:`wait_event`, exactly the ``cudaEventRecord`` /
    ``cudaStreamWaitEvent`` pair a dual-stream pipeline uses.

    Streams never run *functional* work — kernels still produce their
    matches synchronously — they are the accounting substrate the
    serving scheduler uses to model H2D copies overlapping
    ``kernel_body`` and to report how much serialization the overlap
    removed (docs/MODEL.md §8).
    """

    def __init__(self, device: "Device", name: str):
        self.device = device
        self.name = name
        self._cursor = 0.0
        self.ops: List[StreamOp] = []

    @property
    def cursor(self) -> float:
        """Modeled time at which the stream becomes idle."""
        return self._cursor

    def _advance(self, kind: str, name: str, seconds: float, nbytes: int = 0) -> DeviceEvent:
        if seconds < 0:
            raise DeviceError(f"negative duration for stream op {name!r}")
        t0 = self._cursor
        self._cursor = t0 + seconds
        self.ops.append(
            StreamOp(kind=kind, name=name, t_start=t0, t_end=self._cursor,
                     nbytes=nbytes)
        )
        self.device.tracer.event(
            f"stream.{kind}",
            stream=self.name,
            op=name,
            modeled_start=t0,
            modeled_end=self._cursor,
            nbytes=nbytes,
        )
        return DeviceEvent(name=name, stream=self.name, seconds=self._cursor)

    def enqueue_copy(self, nbytes: int, name: str = "copy_h2d") -> DeviceEvent:
        """Enqueue a host→device copy; returns its completion event."""
        seconds = self.device.copy_h2d_seconds(int(nbytes))
        return self._advance("copy_h2d", name, seconds, nbytes=int(nbytes))

    def enqueue_kernel(self, seconds: float, name: str = "kernel_body") -> DeviceEvent:
        """Enqueue a priced kernel; returns its completion event."""
        return self._advance("kernel", name, float(seconds))

    def wait_event(self, event: DeviceEvent) -> None:
        """Stall the stream until *event*'s recording point has passed."""
        if event.seconds > self._cursor:
            self.ops.append(
                StreamOp(
                    kind="wait",
                    name=f"wait:{event.name}@{event.stream}",
                    t_start=self._cursor,
                    t_end=event.seconds,
                )
            )
            self._cursor = event.seconds

    def record_event(self, name: str = "event") -> DeviceEvent:
        """Record an event at the stream's current cursor."""
        return DeviceEvent(name=name, stream=self.name, seconds=self._cursor)

    def synchronize(self) -> float:
        """Modeled ``cudaStreamSynchronize``: the stream's idle time."""
        return self._cursor

    @property
    def busy_seconds(self) -> float:
        """Total modeled time spent executing (waits excluded)."""
        return sum(op.seconds for op in self.ops if op.kind != "wait")


class Device:
    """A simulated CUDA device (defaults to the paper's GTX 285).

    Parameters
    ----------
    config:
        Hardware parameters (default: the paper's GTX 285).
    injector:
        Optional fault injector (any object with a
        ``poke(site, **context)`` method returning ``None`` or a typed
        fault — see :mod:`repro.resilience.faults`).  Production code
        never sets this; fault campaigns do.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  Every state-changing
        device operation emits a ``device.*`` event (alloc, free,
        copy_input, bind_texture, launch) with its byte counts, so a
        traced scan shows the full host-program lifecycle.  Default:
        the shared no-op tracer.
    """

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        injector=None,
        tracer=None,
    ):
        from repro.obs import NULL_TRACER

        self.config = config or gtx285()
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._texture: Optional[TextureBinding] = None
        self._resident: Optional[_Resident] = None
        self._allocated_bytes = 0
        self._streams: Dict[str, Stream] = {}
        #: Lifetime count of texture binds (the serving scheduler and
        #: the bind-reuse regression test read this).
        self.bind_count = 0

    def _poke(self, site: str, **context):
        """Fire an injection site; returns the triggered fault, if any."""
        if self.injector is None:
            return None
        return self.injector.poke(site, **context)

    # -- streams -----------------------------------------------------------

    def stream(self, name: Optional[str] = None) -> Stream:
        """Create a modeled stream (``cudaStreamCreate``).

        Streams share the device's timing constants but keep their own
        timelines.  A stream replaces an earlier one of the same name,
        so the scheduler's per-batch ``h2d``/``compute`` pair leaves a
        serving device holding two streams, not two per batch served.
        """
        s = Stream(self, name or f"stream{len(self._streams)}")
        self._streams[s.name] = s
        return s

    @property
    def streams(self) -> Tuple[Stream, ...]:
        """Live streams, in order of each name's first creation."""
        return tuple(self._streams.values())

    # -- host <-> device ---------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Global memory currently reserved (simulation bookkeeping)."""
        return self._allocated_bytes

    def alloc(self, nbytes: int) -> int:
        """Reserve global memory; returns total allocated after the call.

        Raises
        ------
        DeviceError
            If the device memory would be exceeded (the paper's 200 MB
            inputs + a 20k-pattern STT fit comfortably in 1 GB; this
            guard catches unscaled misuse), or under an injected
            allocation-exhaustion fault.
        """
        if nbytes < 0:
            raise DeviceError("cannot allocate a negative size")
        fault = self._poke("alloc", nbytes=nbytes)
        if fault is not None and fault.kind == "alloc_exhaustion":
            raise DeviceError(
                f"device memory exhausted (injected): {nbytes} B requested "
                f"with {self._allocated_bytes} B already in use"
            )
        if self._allocated_bytes + nbytes > self.config.global_mem_bytes:
            raise DeviceError(
                f"device memory exhausted: {self._allocated_bytes + nbytes} B "
                f"requested of {self.config.global_mem_bytes} B"
            )
        self._allocated_bytes += nbytes
        self.tracer.event(
            "device.alloc", nbytes=nbytes, allocated=self._allocated_bytes
        )
        return self._allocated_bytes

    def free(self, nbytes: int) -> int:
        """Release a previous :meth:`alloc`; returns total still allocated.

        The pair discipline (every buffer freed with its own size) is
        what lets long-lived devices survive repeated kernel runs —
        ``free_all`` is only for teardown.
        """
        if nbytes < 0:
            raise DeviceError("cannot free a negative size")
        if nbytes > self._allocated_bytes:
            raise DeviceError(
                f"free of {nbytes} B exceeds the {self._allocated_bytes} B "
                "currently allocated (double free?)"
            )
        self._allocated_bytes -= nbytes
        self.tracer.event(
            "device.free", nbytes=nbytes, allocated=self._allocated_bytes
        )
        return self._allocated_bytes

    @contextmanager
    def allocation(self, nbytes: int) -> Iterator[int]:
        """Scoped allocation: ``with device.allocation(n): ...`` frees on exit."""
        self.alloc(nbytes)
        try:
            yield nbytes
        finally:
            self.free(nbytes)

    def free_all(self) -> None:
        """Release all allocations (simulation-level bookkeeping)."""
        self._allocated_bytes = 0
        self._texture = None
        self._resident = None

    def copy_h2d_seconds(self, nbytes: int) -> float:
        """Host→device copy time over PCIe (reported, never benchmarked:
        the paper excludes one-time copies from its measurements)."""
        return h2d_copy_seconds(nbytes, self.config)

    def copy_input(self, data: np.ndarray) -> np.ndarray:
        """Model a checksummed host→device copy of an input buffer.

        Allocates ``data.nbytes`` on the device (pair with
        :meth:`free`), stages the bytes, and verifies length + CRC32 of
        the staged copy against the host buffer — the standard guard a
        capture pipeline puts around DMA.  Under injected truncation or
        garbling faults the staged copy differs and the mismatch raises
        :class:`~repro.errors.IntegrityError` *before* any allocation
        is recorded, so a failed copy never leaks device memory.
        """
        data = np.ascontiguousarray(data)
        staged = data
        fault = self._poke("copy_input", nbytes=data.nbytes)
        if fault is not None:
            staged = fault.mutate_input(data)
        if staged.nbytes != data.nbytes:
            raise IntegrityError(
                f"input buffer corrupted during host-to-device copy: sent "
                f"{data.nbytes} B, staged copy truncated to {staged.nbytes} B"
            )
        if crc32_bytes(staged) != crc32_bytes(data):
            raise IntegrityError(
                f"input buffer corrupted during host-to-device copy: staged "
                f"{data.nbytes} B copy fails its CRC32 check"
            )
        self.tracer.event(
            "device.copy_input",
            nbytes=data.nbytes,
            modeled_seconds=self.copy_h2d_seconds(data.nbytes),
        )
        self.alloc(data.nbytes)
        return staged

    def bind_texture(self, dfa, stt_backend: str) -> TextureBinding:
        """Place *dfa*'s gather tables in texture memory (paper §IV-B-2).

        The device keeps its own copy of exactly the arrays a scan under
        *stt_backend* reads, built by
        :func:`~repro.compress.backend.device_gather_table`, and one
        CRC32 per 64 KiB block of each.  For ``dense`` and ``compact``
        that is the fused ``col_flat``, ``cls_lut`` and ``flag_flat``,
        fused straight from the dense STT, which its owner row-CRC-checks
        before the bind — the REPRODFA load, the serving cache's
        ``get_or_build``, the epoch manager's ``built_for`` — so the
        copy holds only bytes a CRC has just covered.  For ``banded``
        and ``bitmap`` it is a copy of the DFA's memoized adapter's
        arrays, which no row CRC covers.  :meth:`verify_texture`
        re-checks every block before each launch and the AC kernels
        gather through this copy (:meth:`gather_table`), so a bit flip
        that lands after binding is caught before the scan reads it.

        The modeled allocation is the dense STT's bytes
        (:class:`TextureBinding`).  Rebinding replaces (and frees) any
        previous binding.
        """
        backend = resolve_backend(stt_backend)
        if self._texture is not None:
            self.unbind_texture()
        stats = dfa.stt.stats()
        self.alloc(stats.bytes_total)
        table, arrays = device_gather_table(dfa, backend, tile_state_dtype(dfa))
        binding = TextureBinding(
            n_states=stats.n_states,
            bytes_total=stats.bytes_total,
            stt_backend=backend,
        )
        self._texture = binding
        self._resident = _Resident(
            dfa=weakref.ref(dfa),
            n_states=stats.n_states,
            table=table,
            arrays=tuple(arrays),
            crcs=tuple(block_checksums(a.data) for a in arrays),
        )
        self.bind_count += 1
        self.tracer.event(
            "device.bind_texture",
            n_states=stats.n_states,
            nbytes=stats.bytes_total,
            stt_backend=backend,
            gather_bytes=sum(a.data.nbytes for a in arrays),
        )
        fault = self._poke("bind_texture", n_states=stats.n_states)
        if fault is not None:
            fault.mutate_table(*(a.data for a in arrays))
        return binding

    def unbind_texture(self) -> None:
        """Release the texture binding and its global-memory footprint."""
        if self._texture is None:
            return
        self.free(self._texture.bytes_total)
        self._texture = None
        self._resident = None

    def verify_texture(self) -> None:
        """Re-check every block CRC of the bound gather arrays.

        No-op when nothing is bound.  Raises
        :class:`~repro.errors.IntegrityError` naming each bad block's
        array and the state (or class, or byte) range it covers —
        callers run this before every launch, and the launch then reads
        exactly these bytes, so post-bind corruption is loud instead of
        a silent mis-match.
        """
        resident = self._resident
        if resident is None:
            return
        bad = [
            (array, block)
            for array, crcs in zip(resident.arrays, resident.crcs)
            for block in verify_block_checksums(array.data, crcs)
        ]
        if bad:
            spans = "; ".join(resident.describe(a, k) for a, k in bad[:8])
            raise IntegrityError(
                "texture-resident gather tables corrupted after bind; "
                f"blocks failing their CRC32 check: {spans}"
                + ("; ..." if len(bad) > 8 else "")
            )

    def gather_table(self, dfa, stt_backend: str):
        """The bound gather table a launch of *dfa* under *stt_backend* reads.

        A fused ``(col_flat, cls_lut, flag_flat)`` triple or an adapter
        over the device's copy, to hand to
        :func:`repro.core.tiled.scan_tiled`.  Raises
        :class:`~repro.errors.LaunchError` when nothing is bound, or the
        binding holds another automaton or another backend.
        """
        resident = self._resident
        if resident is None:
            raise LaunchError("no texture bound: bind_texture before launch")
        if resident.dfa() is not dfa:
            raise LaunchError("texture bound for a different automaton")
        bound = self._texture.stt_backend
        if bound != stt_backend:
            raise LaunchError(
                f"texture bound for stt_backend {bound!r}; the launch "
                f"asked for {stt_backend!r}"
            )
        return resident.table

    @property
    def gather_arrays(self) -> Tuple[GatherArray, ...]:
        """The bound copy's arrays, each as its block CRCs cover it."""
        return () if self._resident is None else self._resident.arrays

    @property
    def texture(self) -> Optional[TextureBinding]:
        """Currently bound automaton, if any."""
        return self._texture

    # -- launches -----------------------------------------------------------

    def launch(self, launch: LaunchConfig, cost: KernelCost) -> TimingBreakdown:
        """Validate the launch against device limits and price it.

        Raises :class:`~repro.errors.LaunchError` for geometry/limit
        violations (or an injected launch failure) and
        :class:`~repro.errors.KernelTimeoutError` when an injected
        watchdog deadline is shorter than the priced kernel time.
        """
        fault = self._poke("launch", n_blocks=launch.n_blocks)
        if fault is not None and fault.kind == "launch_failure":
            raise LaunchError(
                "kernel launch failed (injected): unspecified launch failure"
            )
        occ = launch.validate(self.config)
        if occ.warps_per_sm != cost.occupancy.warps_per_sm:
            raise LaunchError(
                "cost bundle computed for a different occupancy "
                f"({cost.occupancy.warps_per_sm} warps/SM) than the launch "
                f"({occ.warps_per_sm} warps/SM)"
            )
        cost.counters.validate()
        timing = estimate_time(cost, self.config)
        fault = self._poke("timeout", seconds=timing.seconds)
        if fault is not None and timing.seconds > fault.deadline_seconds:
            raise KernelTimeoutError(
                f"kernel exceeded its watchdog deadline: modeled "
                f"{timing.seconds:.6f} s > {fault.deadline_seconds:.6f} s"
            )
        self.tracer.event(
            "device.launch",
            n_blocks=launch.n_blocks,
            threads_per_block=launch.threads_per_block,
            modeled_seconds=timing.seconds,
            regime=timing.regime,
        )
        return timing
