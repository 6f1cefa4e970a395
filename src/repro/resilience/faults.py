"""Typed, deterministic fault injection for the simulated GPU substrate.

A :class:`FaultPlan` is a list of :class:`Fault` specs; a
:class:`FaultInjector` carries a plan through a run, counting visits to
each named **injection site** in :class:`~repro.gpu.device.Device` and
firing the matching faults.  Everything is seed-driven — the same plan
against the same workload reproduces the same failure, which is what
makes a 200-trial campaign debuggable when one trial breaks.

Design rule: an injected fault never surfaces as a special "injected"
exception type.  It either *raises the real error* the failure would
produce (``DeviceError`` for exhaustion, ``LaunchError`` for a failed
launch, ``KernelTimeoutError`` for a tripped watchdog) or *corrupts the
device-resident copy of data* and lets the integrity layer detect it
(``IntegrityError``).  The recovery code exercised by a campaign is
therefore exactly the code production failures take.

Injection sites (see :class:`~repro.gpu.device.Device`):

========== =============================================== ==================
site       fires during                                    fault kinds
========== =============================================== ==================
alloc      ``Device.alloc``                                alloc_exhaustion
copy_input ``Device.copy_input`` (modeled H2D DMA)         input_truncate,
                                                           input_garble
bind_texture ``Device.bind_texture`` (after the copy)      stt_bitflip
launch     ``Device.launch`` (before validation)           launch_failure
timeout    ``Device.launch`` (after pricing)               kernel_timeout
========== =============================================== ==================

The epoch-swap path (:mod:`repro.serve.epoch`) pokes three more sites
of its own — ``delta_apply`` (delta_corrupt), ``swap_verify``
(swap_stt_mismatch), and ``rebuild`` (rebuild_timeout) — so chaos
campaigns can fire faults mid-swap; the same design rule applies (the
fault surfaces as the real :class:`~repro.errors.IntegrityError` /
:class:`~repro.errors.KernelTimeoutError` the failure would produce).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import FaultInjectionError


class FaultKind(str, Enum):
    """The typed fault classes the campaign exercises."""

    STT_BITFLIP = "stt_bitflip"
    INPUT_TRUNCATE = "input_truncate"
    INPUT_GARBLE = "input_garble"
    ALLOC_EXHAUSTION = "alloc_exhaustion"
    LAUNCH_FAILURE = "launch_failure"
    KERNEL_TIMEOUT = "kernel_timeout"
    # Swap-path faults (poked by the EpochManager, not the Device):
    DELTA_CORRUPT = "delta_corrupt"
    SWAP_STT_MISMATCH = "swap_stt_mismatch"
    REBUILD_TIMEOUT = "rebuild_timeout"

    def __str__(self) -> str:  # pragma: no cover - repr aid
        return self.value


#: Which injection site each fault kind attaches to.
SITE_OF: Dict[FaultKind, str] = {
    FaultKind.STT_BITFLIP: "bind_texture",
    FaultKind.INPUT_TRUNCATE: "copy_input",
    FaultKind.INPUT_GARBLE: "copy_input",
    FaultKind.ALLOC_EXHAUSTION: "alloc",
    FaultKind.LAUNCH_FAILURE: "launch",
    FaultKind.KERNEL_TIMEOUT: "timeout",
    FaultKind.DELTA_CORRUPT: "delta_apply",
    FaultKind.SWAP_STT_MISMATCH: "swap_verify",
    FaultKind.REBUILD_TIMEOUT: "rebuild",
}

#: Fault kinds fired at the epoch-swap sites rather than device sites.
#: They are excluded from the default device campaign (a plain scan
#: never visits a swap site) and exercised by ``run_swap_campaign``.
SWAP_FAULT_KINDS = (
    FaultKind.DELTA_CORRUPT,
    FaultKind.SWAP_STT_MISMATCH,
    FaultKind.REBUILD_TIMEOUT,
)

#: Fault kinds fired at the simulated device's injection sites.
DEVICE_FAULT_KINDS = tuple(
    k for k in FaultKind if k not in SWAP_FAULT_KINDS
)

#: All valid site names (the Device and EpochManager poke exactly these).
INJECTION_SITES = tuple(sorted(set(SITE_OF.values())))


@dataclass
class Fault:
    """One planned fault.

    Parameters
    ----------
    kind:
        The fault class (determines the injection site).
    trigger:
        Fire on the *n*-th visit to the site (1-based), letting a plan
        hit e.g. the second kernel launch of a pipeline.
    persistent:
        When True the fault re-fires on every visit at or after
        *trigger* — modeling a hard failure (bad memory bank, wedged
        device) that survives retries and forces a backend fallback.
        The default one-shot fault models a transient glitch a retry
        genuinely fixes.
    seed:
        Seeds the fault's own RNG (which bits flip, which bytes
        garble) — independent of the workload RNG.
    bits:
        STT_BITFLIP: number of bit flips to apply to the device's bound
        gather arrays.
    drop_bytes:
        INPUT_TRUNCATE: bytes cut off the end of the staged copy (at
        least 1 is always dropped).
    garble_bytes:
        INPUT_GARBLE: bytes XOR-scrambled in the staged copy.
    deadline_seconds:
        KERNEL_TIMEOUT: watchdog deadline compared against the priced
        kernel time (default 0.0 — any kernel trips it).
    """

    kind: FaultKind
    trigger: int = 1
    persistent: bool = False
    seed: int = 0
    bits: int = 8
    drop_bytes: int = 97
    garble_bytes: int = 16
    deadline_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.kind = FaultKind(self.kind)
        if self.trigger < 1:
            raise FaultInjectionError(
                f"fault trigger must be >= 1, got {self.trigger}"
            )

    @property
    def site(self) -> str:
        """The device injection site this fault attaches to."""
        return SITE_OF[self.kind]

    # -- corruption payloads (duck-typed; called by the Device) ---------

    def mutate_table(self, *tables: np.ndarray) -> None:
        """STT_BITFLIP / SWAP_STT_MISMATCH: flip ``bits`` random bits.

        The bytes of *tables* are addressed as one buffer, in order: a
        device binding's gather arrays, or the one STT an epoch swap is
        about to serve.
        """
        rng = np.random.default_rng(self.seed)
        flats = [t.reshape(-1).view(np.uint8) for t in tables]
        ends = np.cumsum([f.size for f in flats])
        n = max(int(self.bits), 1)
        positions = rng.integers(0, int(ends[-1]), size=n)
        masks = np.uint8(1) << rng.integers(0, 8, size=n).astype(np.uint8)
        for pos, mask in zip(positions, masks):
            i = int(np.searchsorted(ends, pos, side="right"))
            flats[i][pos - (ends[i - 1] if i else 0)] ^= mask

    def mutate_input(self, data: np.ndarray) -> np.ndarray:
        """INPUT_TRUNCATE/INPUT_GARBLE: return the damaged staged copy."""
        rng = np.random.default_rng(self.seed)
        if self.kind is FaultKind.INPUT_TRUNCATE:
            drop = min(max(int(self.drop_bytes), 1), data.size)
            return np.ascontiguousarray(data[: data.size - drop])
        if self.kind is FaultKind.INPUT_GARBLE:
            staged = np.array(data, copy=True)
            if staged.size:
                n = min(max(int(self.garble_bytes), 1), staged.size)
                positions = rng.integers(0, staged.size, size=n)
                # XOR with 1..255 so every touched byte really changes.
                staged[positions] ^= rng.integers(
                    1, 256, size=n
                ).astype(np.uint8)
            return staged
        return data

    def mutate_blob(self, blob: bytes) -> bytes:
        """DELTA_CORRUPT: return *blob* with garbled payload bytes.

        The damage lands past the header so the container still parses
        as a delta and the corruption is caught by the CRC32 trailer
        (:class:`~repro.errors.IntegrityError`) — the production
        detection path, not a special injected error.
        """
        rng = np.random.default_rng(self.seed)
        staged = bytearray(blob)
        lo = min(10, max(len(staged) - 1, 0))  # skip magic + version
        if len(staged) > lo:
            n = min(max(int(self.garble_bytes), 1), len(staged) - lo)
            for pos in rng.integers(lo, len(staged), size=n):
                staged[int(pos)] ^= int(rng.integers(1, 256))
        return bytes(staged)

    def describe(self) -> str:
        """One-line summary for reports."""
        extra = {
            FaultKind.STT_BITFLIP: f"bits={self.bits}",
            FaultKind.INPUT_TRUNCATE: f"drop={self.drop_bytes}B",
            FaultKind.INPUT_GARBLE: f"garble={self.garble_bytes}B",
            FaultKind.KERNEL_TIMEOUT: f"deadline={self.deadline_seconds}s",
            FaultKind.DELTA_CORRUPT: f"garble={self.garble_bytes}B",
            FaultKind.SWAP_STT_MISMATCH: f"bits={self.bits}",
            FaultKind.REBUILD_TIMEOUT: f"deadline={self.deadline_seconds}s",
        }.get(self.kind, "")
        life = "persistent" if self.persistent else "one-shot"
        return (
            f"{self.kind.value}@{self.site}#{self.trigger} ({life}"
            + (f", {extra}" if extra else "")
            + ")"
        )


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired (for health reports / campaign logs)."""

    kind: FaultKind
    site: str
    invocation: int


@dataclass
class FaultPlan:
    """An ordered set of faults to carry through one scan/campaign trial."""

    faults: List[Fault] = field(default_factory=list)

    @classmethod
    def single(cls, kind: FaultKind, **kwargs) -> "FaultPlan":
        """A plan with one fault of *kind* (kwargs as for :class:`Fault`)."""
        return cls([Fault(kind=FaultKind(kind), **kwargs)])

    @classmethod
    def random(
        cls,
        seed: int,
        kinds: Optional[Sequence[FaultKind]] = None,
        n_faults: int = 1,
    ) -> "FaultPlan":
        """A seed-driven plan: random kinds, triggers, payload sizes.

        Deterministic in *seed*; used by the campaign to sweep the
        fault space without hand-enumerating scenarios.
        """
        rng = np.random.default_rng(seed)
        kinds = list(kinds) if kinds is not None else list(FaultKind)
        faults = []
        for _ in range(max(n_faults, 1)):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            faults.append(
                Fault(
                    kind=kind,
                    trigger=int(rng.integers(1, 3)),
                    persistent=bool(rng.integers(0, 2)),
                    seed=int(rng.integers(0, 2**31)),
                    bits=int(rng.integers(1, 33)),
                    drop_bytes=int(rng.integers(1, 257)),
                    garble_bytes=int(rng.integers(1, 65)),
                    deadline_seconds=float(rng.uniform(0.0, 1e-6)),
                )
            )
        return cls(faults)

    def scaled_down(self) -> "FaultPlan":
        """A copy with every fault made one-shot (transient variant)."""
        return FaultPlan([replace(f, persistent=False) for f in self.faults])


class FaultInjector:
    """Carries a :class:`FaultPlan` through a run, firing faults at sites.

    The injector is deliberately *stateful across retries*: the
    resilient pipeline shares one injector over all attempts, so a
    one-shot fault consumed by attempt 1 lets attempt 2 succeed —
    modeling a transient — while a persistent fault keeps failing and
    forces the fallback chain to advance.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        for f in self.plan.faults:
            if not isinstance(f, Fault):
                raise FaultInjectionError(
                    f"fault plan entries must be Fault, got {type(f).__name__}"
                )
        self._visits: Dict[str, int] = {}
        self._consumed: set = set()
        self.events: List[FaultEvent] = []

    def visits(self, site: str) -> int:
        """How many times *site* has been poked so far."""
        return self._visits.get(site, 0)

    def poke(self, site: str, **context) -> Optional[Fault]:
        """Record a visit to *site*; return the fault firing there, if any.

        At most one fault fires per visit (the first matching plan
        entry); the Device applies its effect.
        """
        if site not in INJECTION_SITES:
            raise FaultInjectionError(f"unknown injection site {site!r}")
        count = self._visits.get(site, 0) + 1
        self._visits[site] = count
        for idx, fault in enumerate(self.plan.faults):
            if fault.site != site:
                continue
            if fault.persistent:
                if count < fault.trigger:
                    continue
            else:
                if count != fault.trigger or idx in self._consumed:
                    continue
                self._consumed.add(idx)
            self.events.append(
                FaultEvent(kind=fault.kind, site=site, invocation=count)
            )
            return fault
        return None

    @property
    def fired(self) -> List[FaultEvent]:
        """Faults that have fired so far (alias for :attr:`events`)."""
        return self.events
