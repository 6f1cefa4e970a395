"""CRC32 integrity primitives for compiled automata.

The paper's deployment scenario compiles dictionaries offline and ships
the STT to NIDS sensors, where it sits resident in device memory for
days.  A single flipped transition entry silently reroutes the DFA —
matches are dropped or invented with no error — so the on-disk format
(:mod:`repro.core.serialization`, ``REPRODFA`` v2), the serving cache
(:meth:`repro.serve.cache.CacheEntry.verify`) and the epoch swap
(:class:`repro.serve.epoch.EpochManager`) carry **per-row CRC32
checksums** of the dense transition table.  A loaded or served host
table is re-verified against them before anything reads it: a device
bind, a serial scan, the serving fallback.

Per-row (rather than whole-table) checksums cost the same 4 bytes/KB
but localize the damage: an :class:`~repro.errors.IntegrityError`
names the corrupted state rows, which is what an operator needs to
distinguish "re-push the artifact" from "this sensor's memory is bad".

The simulated device guards the bytes a kernel actually reads — the
gather arrays of the launch's STT backend, not the dense table — with
:func:`block_checksums`: one CRC32 per 64 KiB block, recorded by
:meth:`repro.gpu.device.Device.bind_texture` and re-checked by
:meth:`~repro.gpu.device.Device.verify_texture` before every launch,
so a scan that reads only that copy needs no row-CRC pass.  Those live
only in memory, so they are not a persisted format.

CRC32 is an integrity check against *accidental* corruption (bit rot,
truncated copies, DMA errors), not an authenticity check: an attacker
who can rewrite the artifact can rewrite the checksums.  Authenticated
distribution is a transport concern, out of scope here.
"""

from __future__ import annotations

import zlib
from typing import List, Union

import numpy as np

from repro.core.stt import STT

__all__ = [
    "BLOCK_BYTES",
    "block_checksums",
    "crc32_bytes",
    "stt_row_checksums",
    "verify_block_checksums",
    "verify_row_checksums",
    "CHECKSUM_DTYPE",
]

#: On-disk / in-header dtype of a checksum vector (one CRC32 per row).
CHECKSUM_DTYPE = np.dtype("<u4")

#: Bytes covered by each CRC32 of :func:`block_checksums`.
BLOCK_BYTES = 64 * 1024


def crc32_bytes(data: Union[bytes, bytearray, memoryview, np.ndarray]) -> int:
    """CRC32 of a byte buffer (NumPy arrays hash their C-order bytes)."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return zlib.crc32(data) & 0xFFFFFFFF


def stt_row_checksums(stt: Union[STT, np.ndarray]) -> np.ndarray:
    """One CRC32 per STT row, over the row's little-endian ``int32`` bytes.

    The little-endian canonical form makes the checksums portable
    across hosts (the table itself is already serialized as ``<i4``).
    ``zlib.crc32`` reads each row of the canonical table in place.
    """
    table = stt.table if isinstance(stt, STT) else np.asarray(stt)
    canon = np.ascontiguousarray(table, dtype="<i4")
    return np.fromiter(
        map(zlib.crc32, canon), dtype=CHECKSUM_DTYPE, count=canon.shape[0]
    )


def verify_row_checksums(
    table: Union[STT, np.ndarray], expected: np.ndarray
) -> List[int]:
    """Row indices whose current CRC32 disagrees with *expected*.

    An empty list means the table is intact.  A shape mismatch (the
    table does not even have the checksummed number of rows) reports
    row ``-1`` so callers surface it rather than zip-truncate.
    """
    actual = stt_row_checksums(table)
    expected = np.asarray(expected, dtype=CHECKSUM_DTYPE)
    if actual.shape != expected.shape:
        return [-1]
    return np.flatnonzero(actual != expected).tolist()


def block_checksums(arr: np.ndarray) -> np.ndarray:
    """One CRC32 per :data:`BLOCK_BYTES` block of *arr*'s bytes.

    The last block may be short; an empty array has no blocks.  The
    bytes are read in place and in native order: a device re-checks
    the same array on the same host, so unlike
    :func:`stt_row_checksums` nothing here is a persisted format.
    """
    buf = memoryview(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
    return np.fromiter(
        (
            zlib.crc32(buf[i : i + BLOCK_BYTES])
            for i in range(0, len(buf), BLOCK_BYTES)
        ),
        dtype=CHECKSUM_DTYPE,
        count=-(-len(buf) // BLOCK_BYTES),
    )


def verify_block_checksums(arr: np.ndarray, expected: np.ndarray) -> List[int]:
    """Block indices of *arr* whose CRC32 disagrees with *expected*
    (an empty list means intact)."""
    return np.flatnonzero(block_checksums(arr) != expected).tolist()
