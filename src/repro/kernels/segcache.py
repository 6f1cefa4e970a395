"""The two names left of the retired segment memo.

Kernel launches keep no scan after they return, and the bench runner
prices a cell's shared variants from one scan (docs/MODEL.md §14), so
nothing is memoized and nothing increments :data:`CACHE`'s ``hits``
any more: it reads 0 for the life of the process.  The measured
benchmark under ``perf/`` still reads ``CACHE.hits`` and calls
:func:`clear`; the next change to the benchmark drops those uses and
deletes this module.
"""

from __future__ import annotations

from types import SimpleNamespace

#: Hit counter the benchmark reads; always 0.
CACHE = SimpleNamespace(hits=0)


def clear() -> None:
    """Nothing to drop: kept for the benchmark's fixtures."""
