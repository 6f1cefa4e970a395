"""STT compression extensions (paper refs [18], [19]).

Two schemes trading per-fetch arithmetic for texture-working-set size:

* :class:`~repro.compress.banded.BandedSTT` — branch-free band + default
  per row (mild compression, zero data-dependence);
* :class:`~repro.compress.bitmap.BitmapDeltaSTT` — failure-delta bitmaps
  with popcount indexing (heavy compression, chain-walk lookups).

Column compression over the pattern alphabet is
:class:`~repro.core.compact.CompactSTT`, the ``compact`` gather backend.
"""

from repro.compress.backend import (
    DEFAULT_BACKEND,
    STT_BACKENDS,
    BackendCost,
    BandedGather,
    BitmapGather,
    build_gather_table,
    resolve_backend,
)
from repro.compress.banded import BandedSTT, CompressionStats
from repro.compress.bitmap import BitmapDeltaSTT

__all__ = [
    "BandedSTT",
    "BitmapDeltaSTT",
    "CompressionStats",
    "STT_BACKENDS",
    "DEFAULT_BACKEND",
    "BackendCost",
    "BandedGather",
    "BitmapGather",
    "build_gather_table",
    "resolve_backend",
]
