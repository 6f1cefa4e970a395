"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by this library derives from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting genuine programming errors
(``TypeError`` from misuse of NumPy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class PatternError(ReproError):
    """Raised for invalid pattern sets (empty patterns, wrong types...)."""


class AutomatonError(ReproError):
    """Raised when an automaton is queried in an invalid way."""


class ChunkingError(ReproError):
    """Raised for invalid chunk geometry (chunk size <= 0, overlap < 0...)."""


class DeltaError(AutomatonError):
    """Raised for invalid pattern deltas.

    Covers removing a pattern the base set does not contain, adding one
    it already has, an empty delta, and a delta that would empty the
    set.  The swap path treats any :class:`DeltaError` as "abort the
    swap and keep serving the last good epoch" — it must never surface
    a torn automaton.
    """


class SwapError(ReproError):
    """Raised when an epoch swap cannot be admitted or completed.

    Distinct from :class:`DeltaError`: a ``SwapError`` means the swap
    machinery itself refused (unknown pattern-set name, rollback with no
    predecessor) — the serving state is still consistent.
    """


class OverlapBudgetError(SwapError):
    """Raised when a swap would exceed the two-epoch overlap budget.

    Old epochs are retired only when their last in-flight batch drains;
    if rebuilds outpace drains the scheduler refuses new swaps
    (backpressure) instead of letting retired-but-referenced STT
    buffers pile up.
    """


class DeviceError(ReproError):
    """Raised by the GPU substrate for invalid device configuration."""


class LaunchError(DeviceError):
    """Raised when a kernel launch violates device limits.

    Examples: requesting more shared memory per block than the device
    has, more threads per block than the SIMT limit, or a grid of zero
    blocks.
    """


class MemoryModelError(DeviceError):
    """Raised by the memory-hierarchy models for invalid traffic."""


class SerializationError(ReproError):
    """Raised when loading a corrupt or incompatible serialized STT."""


class IntegrityError(SerializationError):
    """Raised when checksummed data fails verification.

    Covers both the on-disk artifact (a ``REPRODFA`` v2 section whose
    CRC32 no longer matches) and the simulated device (an STT resident
    in texture memory, or an input buffer after the modeled host→device
    copy, that differs from what was uploaded).  Subclasses
    :class:`SerializationError` because every integrity violation means
    the same thing to a caller: the stored bytes can no longer be
    trusted to reproduce the machine that was saved.
    """


class KernelTimeoutError(DeviceError):
    """Raised when a kernel's modeled runtime exceeds its deadline.

    Real deployments guard kernel launches with a watchdog; the
    simulated substrate models that by comparing the priced launch time
    against a deadline (normally infinite, finite under fault
    injection).
    """


class FaultInjectionError(ReproError):
    """Raised for invalid fault plans or misuse of the injector itself.

    Note: *injected* faults never raise this type — they surface as the
    error the real failure would produce (:class:`DeviceError` for
    exhausted memory, :class:`LaunchError` for failed launches,
    :class:`IntegrityError` for corrupted buffers...), so the recovery
    paths exercised by fault campaigns are the production ones.
    """


class ExperimentError(ReproError):
    """Raised by the benchmark harness for unknown experiments/params,
    or for a cell whose GPU kernels disagree on the match count."""


class SchemaError(ReproError):
    """Raised when a machine-readable export drifts from its schema.

    The observability layer versions its JSON documents (bench cells,
    metrics); CI validates emitted artifacts against the declared
    schema so a renamed or retyped field fails the build instead of
    silently breaking downstream consumers.
    """


class MetricsError(ReproError):
    """Raised for metric-registry misuse.

    The canonical case: re-registering a histogram under an existing
    name with *different* bucket bounds.  Prometheus semantics make
    bucket layout part of the series identity — silently keeping the
    first registration's buckets would record the second caller's
    observations against bounds it never asked for.
    """
