"""Bench collectors: machine-readable ``BENCH_*.json`` trajectories.

A :class:`BenchCollector` attaches to an
:class:`~repro.bench.runner.ExperimentRunner` (the ``collector``
constructor argument) and receives every cell result the runner
produces — including cache hits, which are flagged so a trajectory
distinguishes fresh simulation from replay.  :meth:`as_document`
assembles the versioned JSON document the CI bench-smoke job uploads
as ``BENCH_pr.json``; :func:`validate_bench_document` is the schema
gate that job fails on.

The schema is deliberately flat and explicit (no implicit nulls beyond
the absent baselines), so drift — a renamed field, a type change, a
missing kernel stat — is a loud CI failure rather than a silently
broken dashboard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SchemaError

#: Document identifier + version; bump on any breaking field change.
BENCH_SCHEMA = "repro-ac/bench-cells"
#: v1: flat kernel stats.  v2: adds the required per-kernel
#: ``counters`` summary block (hardware-event derived metrics the
#: perf gate diffs).  New documents are always written at the latest
#: version; validation accepts every version listed here so archived
#: v1 baselines still load.
BENCH_SCHEMA_VERSION = 2
BENCH_SCHEMA_VERSIONS = frozenset({1, 2})

#: Required per-kernel stats and their types (all versions).
_KERNEL_FIELDS = {
    "seconds": float,
    "gbps": float,
    "regime": str,
    "tex_hit_rate": float,
    "avg_conflict_degree": float,
    "warps_per_sm": int,
    "matches": int,
}

#: Required fields of the v2 per-kernel ``counters`` block.  The
#: ``achieved_gbps`` here is the *sim-scale* modeled throughput (the
#: unscaled counter-level number), distinct from the paper-scale
#: ``gbps`` kernel stat.
_COUNTER_FIELDS = {
    "achieved_gbps": float,
    "global_transactions": int,
    "global_bytes": int,
    "bus_efficiency": float,
    "transactions_per_access": float,
    "shared_accesses": int,
    "bank_conflict_excess": int,
    "texture_accesses": int,
    "texture_misses": int,
    "overlap_ratio": float,
}

#: Required per-cell fields and their types.
_CELL_FIELDS = {
    "size_label": str,
    "n_patterns": int,
    "paper_bytes": int,
    "sim_bytes": int,
    "n_states": int,
    "cached": bool,
    "kernels": dict,
}

#: Optional per-cell fields: ``stt`` records the STT storage backend
#: the cell's GPU kernels gathered through plus its memory accounting
#: (absent in pre-compression documents, which still validate).
_CELL_OPTIONAL_FIELDS = {"stt": dict}

#: Required fields of the optional per-cell ``stt`` block.  ``ratio``
#: is the compression factor ``dense_bytes / table_bytes`` (1.0 for
#: the dense-footprint backends).
_STT_FIELDS = {
    "backend": str,
    "table_bytes": int,
    "dense_bytes": int,
    "ratio": float,
}

#: Required baseline stats (when the baseline was run).
_BASELINE_FIELDS = {"seconds": float, "gbps": float}

#: Optional baseline stats: ``workers`` records the core count a
#: ``serial_mt`` block was priced for (absent in pre-PR-7 documents,
#: which still validate).
_BASELINE_OPTIONAL_FIELDS = {"workers": int}


@dataclass
class CellRecord:
    """One ``run_cell`` outcome in export form."""

    size_label: str
    n_patterns: int
    paper_bytes: int
    sim_bytes: int
    n_states: int
    cached: bool
    serial: Optional[Dict[str, float]] = None
    serial_mt: Optional[Dict[str, float]] = None
    kernels: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    stt: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form for the JSON document."""
        doc = {
            "size_label": self.size_label,
            "n_patterns": self.n_patterns,
            "paper_bytes": self.paper_bytes,
            "sim_bytes": self.sim_bytes,
            "n_states": self.n_states,
            "cached": self.cached,
            "serial": self.serial,
            "serial_mt": self.serial_mt,
            "kernels": self.kernels,
        }
        if self.stt is not None:
            doc["stt"] = self.stt
        return doc


class BenchCollector:
    """Accumulates cell results into a versioned bench document."""

    def __init__(self, label: str = "bench") -> None:
        self.label = label
        self.records: List[CellRecord] = []
        self.config: Dict[str, Any] = {}

    # -- runner hooks ----------------------------------------------------

    def on_runner(self, config: Dict[str, Any]) -> None:
        """Record the runner configuration the cells were produced under."""
        self.config = dict(config)

    def on_cell(self, result: Any, *, cached: bool) -> None:
        """Record one :class:`~repro.bench.runner.CellResult`."""

        def _baseline(cost: Any) -> Optional[Dict[str, float]]:
            if cost is None:
                return None
            block = {
                "seconds": float(cost.seconds),
                "gbps": float(cost.throughput_gbps),
            }
            cores = int(getattr(cost, "cores", 1))
            if cores > 1:
                block["workers"] = cores
            return block

        kernels: Dict[str, Dict[str, Any]] = {}
        for name, sk in result.kernels.items():
            kernels[name] = {
                "seconds": float(sk.seconds),
                "gbps": float(sk.gbps),
                "regime": str(sk.regime),
                "tex_hit_rate": float(sk.tex_hit_rate),
                "avg_conflict_degree": float(sk.avg_conflict_degree),
                "warps_per_sm": int(sk.warps_per_sm),
                "matches": int(sk.matches),
                "counters": dict(sk.counters),
            }
        self.records.append(
            CellRecord(
                size_label=str(result.size_label),
                n_patterns=int(result.n_patterns),
                paper_bytes=int(result.paper_bytes),
                sim_bytes=int(result.sim_bytes),
                n_states=int(result.n_states),
                cached=cached,
                serial=_baseline(result.serial),
                serial_mt=_baseline(result.serial_mt),
                kernels=kernels,
                stt=(
                    dict(result.stt)
                    if getattr(result, "stt", None) is not None
                    else None
                ),
            )
        )

    # -- export ----------------------------------------------------------

    def as_document(self) -> Dict[str, Any]:
        """The versioned, schema-checked bench document."""
        doc = {
            "schema": BENCH_SCHEMA,
            "version": BENCH_SCHEMA_VERSION,
            "label": self.label,
            "config": dict(self.config),
            "cells": [r.as_dict() for r in self.records],
        }
        validate_bench_document(doc)
        return doc

    def write_json(self, path: str, **blocks: Any) -> Dict[str, Any]:
        """Write the document (validated) to *path* and return it.

        Each keyword adds one extra top-level block (validators tolerate
        unknown top-level keys), such as paperscale's ``wall_clock``.
        """
        doc = self.as_document()
        doc.update(blocks)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return doc


def _check_type(value: Any, expect: type, where: str, errors: List[str]) -> None:
    # bool is an int subclass; keep the check strict so a schema drift
    # from int to bool (or vice versa) is caught.
    if expect is int and isinstance(value, bool):
        errors.append(f"{where}: expected int, got bool")
        return
    if expect is float and isinstance(value, int) and not isinstance(value, bool):
        return  # JSON round-trips whole floats as ints; accept.
    if not isinstance(value, expect):
        errors.append(
            f"{where}: expected {expect.__name__}, "
            f"got {type(value).__name__}"
        )


def validate_bench_document(doc: Any) -> None:
    """Raise :class:`~repro.errors.SchemaError` on any schema drift.

    Checks the document header, every cell's required fields and types,
    every kernel stat block, and baseline blocks when present.  The
    error message lists *all* problems, so one CI run surfaces the full
    drift.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        raise SchemaError(f"bench document must be a dict, got {type(doc)}")
    if doc.get("schema") != BENCH_SCHEMA:
        errors.append(
            f"schema: expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    version = doc.get("version")
    if version not in BENCH_SCHEMA_VERSIONS:
        errors.append(
            f"version: expected one of {sorted(BENCH_SCHEMA_VERSIONS)}, "
            f"got {version!r}"
        )
        # Keep checking against the latest schema so one run still
        # surfaces field-level drift alongside the version error.
        version = BENCH_SCHEMA_VERSION
    kernel_fields = dict(_KERNEL_FIELDS)
    if version >= 2:
        kernel_fields["counters"] = dict
    if not isinstance(doc.get("config"), dict):
        errors.append("config: expected dict")
    cells = doc.get("cells")
    if not isinstance(cells, list):
        errors.append("cells: expected list")
        cells = []
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{where}: expected dict")
            continue
        for name, expect in _CELL_FIELDS.items():
            if name not in cell:
                errors.append(f"{where}.{name}: missing")
                continue
            _check_type(cell[name], expect, f"{where}.{name}", errors)
        for name, expect in _CELL_OPTIONAL_FIELDS.items():
            if name in cell and cell[name] is not None:
                _check_type(cell[name], expect, f"{where}.{name}", errors)
        stt = cell.get("stt")
        if isinstance(stt, dict):
            swhere = f"{where}.stt"
            for name, expect in _STT_FIELDS.items():
                if name not in stt:
                    errors.append(f"{swhere}.{name}: missing")
                else:
                    _check_type(stt[name], expect, f"{swhere}.{name}", errors)
            extra = set(stt) - set(_STT_FIELDS)
            if extra:
                errors.append(f"{swhere}: unknown fields {sorted(extra)}")
        for baseline in ("serial", "serial_mt"):
            block = cell.get(baseline)
            if block is None:
                continue
            if not isinstance(block, dict):
                errors.append(f"{where}.{baseline}: expected dict or null")
                continue
            for name, expect in _BASELINE_FIELDS.items():
                if name not in block:
                    errors.append(f"{where}.{baseline}.{name}: missing")
                else:
                    _check_type(
                        block[name], expect, f"{where}.{baseline}.{name}",
                        errors,
                    )
            for name, expect in _BASELINE_OPTIONAL_FIELDS.items():
                if name in block:
                    _check_type(
                        block[name], expect, f"{where}.{baseline}.{name}",
                        errors,
                    )
            extra = set(block) - set(_BASELINE_FIELDS) - set(
                _BASELINE_OPTIONAL_FIELDS
            )
            if extra:
                errors.append(
                    f"{where}.{baseline}: unknown fields {sorted(extra)}"
                )
        for kname, block in (cell.get("kernels") or {}).items():
            kwhere = f"{where}.kernels[{kname}]"
            if not isinstance(block, dict):
                errors.append(f"{kwhere}: expected dict")
                continue
            for name, expect in kernel_fields.items():
                if name not in block:
                    errors.append(f"{kwhere}.{name}: missing")
                else:
                    _check_type(block[name], expect, f"{kwhere}.{name}", errors)
            extra = set(block) - set(kernel_fields)
            if extra:
                errors.append(f"{kwhere}: unknown fields {sorted(extra)}")
            counters = block.get("counters")
            if version >= 2 and isinstance(counters, dict):
                cwhere = f"{kwhere}.counters"
                for name, expect in _COUNTER_FIELDS.items():
                    if name not in counters:
                        errors.append(f"{cwhere}.{name}: missing")
                    else:
                        _check_type(
                            counters[name], expect, f"{cwhere}.{name}", errors
                        )
                extra = set(counters) - set(_COUNTER_FIELDS)
                if extra:
                    errors.append(
                        f"{cwhere}: unknown fields {sorted(extra)}"
                    )
    if errors:
        raise SchemaError(
            "bench document fails schema "
            f"{BENCH_SCHEMA} v{version}:\n  "
            + "\n  ".join(errors)
        )
