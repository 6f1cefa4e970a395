"""Whole-DFA serialization and integrity validation.

Real deployments (the paper's NIDS scenario rebuilds dictionaries
offline and ships compiled automata to sensors) need the *whole*
phase-1 artifact: STT + output map + pattern lengths + the patterns
themselves.  This module packages those into REPRODFA, a single
self-describing binary format and the repository's one container
format, and provides :func:`validate_stt` — the structural integrity
check run on every load, so a corrupted or truncated artifact fails
loudly instead of silently mis-matching.

Format: ``REPRODFA`` magic, one JSON header line (versions, section
lengths), then raw little-endian sections in fixed order.  No pickle —
artifacts from untrusted sources stay safe to load.

Version 2 (current) extends version 1 with the integrity layer the
shipped-automaton deployment needs (see :mod:`repro.core.integrity`):

* a CRC32 per section in the header — any bit flip or truncation in
  the body raises :class:`~repro.errors.IntegrityError` on load;
* a fifth section of per-STT-row CRC32s, carried alongside the table
  so the GPU substrate can re-verify the texture-resident copy on
  bind and after runs, not just at load time;
* the ``case_insensitive`` build flag, so a matcher restored from disk
  folds scanned text exactly like the one that was saved.

Version 1 artifacts (no checksums, case-sensitive) remain readable.

Version 2 artifacts may additionally carry *extra sections*: tagged,
individually CRC-checked blobs appended after the five base sections
and declared in the header's ``"extra"`` list.  Compressed STT backends
(:mod:`repro.compress`) ship through this channel — tags
:data:`EXTRA_BANDED` and :data:`EXTRA_BITMAP` — so a sensor can load a
pre-built succinct table without rebuilding it from the dense STT.
Readers that predate extra sections ignore the trailing bytes, so the
format stays forward compatible.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.alphabet import ALPHABET_SIZE, MATCH_COLUMN
from repro.core.dfa import DFA
from repro.core.integrity import (
    CHECKSUM_DTYPE,
    crc32_bytes,
    stt_row_checksums,
    verify_row_checksums,
)
from repro.core.pattern_set import PatternSet
from repro.core.stt import STT
from repro.errors import IntegrityError, SerializationError

_MAGIC = b"REPRODFA"
_VERSION = 2
#: Section counts per readable version (v1 had no row-checksum section).
_N_SECTIONS = {1: 4, 2: 5}

#: Extra-section tag carrying a :class:`repro.compress.banded.BandedSTT`
#: blob (the blob's own inner format is CRC-checked a second time).
EXTRA_BANDED = "banded_stt_v1"
#: Extra-section tag carrying a
#: :class:`repro.compress.bitmap.BitmapDeltaSTT` blob.
EXTRA_BITMAP = "bitmap_stt_v1"


def validate_stt(stt: STT) -> List[str]:
    """Structural integrity check of a transition table.

    Returns a list of human-readable problems (empty = valid):

    * transition closure — every δ(s, a) must be a valid state id;
    * binary match flags;
    * root reachability is NOT required (states unreachable from the
      root are wasteful but harmless), but negative ids are fatal.
    """
    problems: List[str] = []
    table = stt.table
    n = stt.n_states
    trans = table[:, :ALPHABET_SIZE]
    if trans.min() < 0:
        problems.append(
            f"negative transition target (min {int(trans.min())})"
        )
    if trans.max() >= n:
        problems.append(
            f"transition target {int(trans.max())} out of range "
            f"(n_states={n})"
        )
    flags = table[:, MATCH_COLUMN]
    bad_flags = np.setdiff1d(np.unique(flags), [0, 1])
    if bad_flags.size:
        problems.append(f"non-binary match flags: {bad_flags.tolist()[:5]}")
    return problems


def validate_dfa(dfa: DFA) -> List[str]:
    """Full-artifact integrity check: STT + output map + patterns."""
    problems = validate_stt(dfa.stt)
    n = dfa.n_states
    offs = dfa.out_offsets
    if offs.shape != (n + 1,):
        problems.append(f"out_offsets shape {offs.shape} != ({n + 1},)")
    else:
        if offs[0] != 0 or np.any(np.diff(offs) < 0):
            problems.append("out_offsets not monotone from 0")
        if offs[-1] != dfa.out_ids.size:
            problems.append(
                f"out_offsets end {int(offs[-1])} != out_ids size "
                f"{dfa.out_ids.size}"
            )
    n_pat = len(dfa.patterns)
    if dfa.out_ids.size and (
        dfa.out_ids.min() < 0 or dfa.out_ids.max() >= n_pat
    ):
        problems.append("output pattern id out of range")
    # Match flags must agree with the output map.
    flags = dfa.stt.match_flags.astype(bool)
    has_out = (np.diff(dfa.out_offsets) > 0)
    if not np.array_equal(flags, has_out):
        bad = int(np.flatnonzero(flags != has_out)[0])
        problems.append(
            f"match flag / output map disagreement at state {bad}"
        )
    return problems


@dataclass(frozen=True)
class LoadedDFA:
    """A deserialized artifact plus the metadata its header carried.

    ``row_checksums`` is the per-row CRC32 vector: verified against the
    table at load for v2 artifacts, recomputed for v1.  The same row
    CRCs are re-checked on every serving-cache hit
    (:meth:`repro.serve.cache.CacheEntry.verify`) and at every epoch
    swap (``EpochManager._verify``).  A device bind does not take them:
    :meth:`repro.gpu.device.Device.bind_texture` block-checksums its own
    copy of the gather arrays.
    """

    dfa: DFA
    version: int
    case_insensitive: bool = False
    row_checksums: Optional[np.ndarray] = field(default=None, repr=False)
    #: Tagged extra-section payloads (already CRC-verified), e.g. the
    #: compressed STT blobs under :data:`EXTRA_BANDED` /
    #: :data:`EXTRA_BITMAP`.  Empty for artifacts saved without extras.
    extra: Dict[str, bytes] = field(default_factory=dict, repr=False)


def save_dfa(
    dfa: DFA,
    fp: Union[str, BinaryIO],
    *,
    case_insensitive: bool = False,
    extras: Optional[Mapping[str, bytes]] = None,
) -> None:
    """Serialize the full phase-1 artifact (current, v2, format).

    *extras* maps section tags to opaque blobs appended after the base
    sections; each is declared (tag, length, CRC32) in the header so a
    flipped bit or a silent truncation fails loudly on load.  Artifacts
    saved without extras are byte-identical to the pre-extra format.
    """
    pattern_blob = b"\n".join(
        p.hex().encode("ascii") for p in dfa.patterns.as_bytes_list()
    )
    sections = [
        dfa.stt.table.astype("<i4").tobytes(),
        dfa.out_offsets.astype("<i8").tobytes(),
        dfa.out_ids.astype("<i8").tobytes(),
        pattern_blob,
        stt_row_checksums(dfa.stt).tobytes(),
    ]
    header = {
        "version": _VERSION,
        "n_states": dfa.n_states,
        "n_patterns": len(dfa.patterns),
        "case_insensitive": bool(case_insensitive),
        "sections": [len(s) for s in sections],
        "section_crcs": [crc32_bytes(s) for s in sections],
    }
    extra_blobs: List[bytes] = []
    if extras:
        decl = []
        for tag, blob in extras.items():
            if not isinstance(tag, str) or not tag:
                raise SerializationError(f"invalid extra-section tag {tag!r}")
            if not isinstance(blob, (bytes, bytearray)):
                raise SerializationError(
                    f"extra section {tag!r} payload must be bytes"
                )
            blob = bytes(blob)
            decl.append(
                {"tag": tag, "length": len(blob), "crc": crc32_bytes(blob)}
            )
            extra_blobs.append(blob)
        header["extra"] = decl
    payload = json.dumps(header).encode("ascii") + b"\n"
    if isinstance(fp, str):
        with open(fp, "wb") as fh:
            _write(fh, payload, sections + extra_blobs)
    else:
        _write(fp, payload, sections + extra_blobs)


def _write(fh: BinaryIO, header: bytes, sections) -> None:
    fh.write(_MAGIC)
    fh.write(header)
    for s in sections:
        fh.write(s)


def load_dfa(fp: Union[str, BinaryIO]) -> DFA:
    """Inverse of :func:`save_dfa`; validates before returning."""
    return load_dfa_meta(fp).dfa


def load_dfa_meta(fp: Union[str, BinaryIO]) -> LoadedDFA:
    """Like :func:`load_dfa` but also returns the header metadata."""
    if isinstance(fp, str):
        with open(fp, "rb") as fh:
            return _read(fh)
    return _read(fp)


def _read(fh: BinaryIO) -> LoadedDFA:
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise SerializationError("not a DFA artifact (bad magic)")
    line = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise SerializationError("truncated DFA header")
        if ch == b"\n":
            break
        line += ch
    try:
        header = json.loads(line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt DFA header: {exc}") from exc
    version = header.get("version")
    if version not in _N_SECTIONS:
        raise SerializationError(
            f"unsupported DFA artifact version {version!r}"
        )
    n_sections = _N_SECTIONS[version]
    try:
        n_states = int(header["n_states"])
        case_insensitive = bool(header.get("case_insensitive", False))
        sizes = [int(x) for x in header["sections"]]
        if len(sizes) != n_sections:
            raise KeyError("sections")
        if version >= 2:
            crcs = [int(x) for x in header["section_crcs"]]
            if len(crcs) != n_sections:
                raise KeyError("section_crcs")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed DFA header: {exc}") from exc

    extra_decl = header.get("extra", [])
    if not isinstance(extra_decl, list):
        raise SerializationError("malformed DFA header: extra")
    for item in extra_decl:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("tag"), str)
            or not isinstance(item.get("length"), int)
            or not isinstance(item.get("crc"), int)
            or item["length"] < 0
        ):
            raise SerializationError(
                "malformed DFA header: extra-section declaration"
            )

    raw = [fh.read(sz) for sz in sizes]
    for got, want in zip(raw, sizes):
        if len(got) != want:
            raise SerializationError("truncated DFA artifact body")

    extra: Dict[str, bytes] = {}
    for item in extra_decl:
        blob = fh.read(item["length"])
        if len(blob) != item["length"]:
            raise SerializationError(
                f"truncated extra section {item['tag']!r} "
                f"(declared {item['length']} bytes, got {len(blob)})"
            )
        got_crc = crc32_bytes(blob)
        if got_crc != item["crc"]:
            raise IntegrityError(
                f"extra section {item['tag']!r} failed its CRC32 check "
                f"(stored {item['crc']:#010x}, computed {got_crc:#010x})"
            )
        extra[item["tag"]] = blob

    if version >= 2:
        for i, (section, want_crc) in enumerate(zip(raw, crcs)):
            got_crc = crc32_bytes(section)
            if got_crc != want_crc:
                raise IntegrityError(
                    f"DFA artifact section {i} failed its CRC32 check "
                    f"(stored {want_crc:#010x}, computed {got_crc:#010x})"
                )

    table = np.frombuffer(raw[0], dtype="<i4")
    if table.size != n_states * (ALPHABET_SIZE + 1):
        raise SerializationError("STT section size mismatch")
    table = table.reshape(n_states, ALPHABET_SIZE + 1).astype(np.int32)
    offsets = np.frombuffer(raw[1], dtype="<i8").astype(np.int64)
    ids = np.frombuffer(raw[2], dtype="<i8").astype(np.int64)
    try:
        patterns = PatternSet.from_bytes(
            [bytes.fromhex(tok.decode("ascii")) for tok in raw[3].split(b"\n")]
        )
    except ValueError as exc:
        raise SerializationError(f"corrupt pattern section: {exc}") from exc

    if version >= 2:
        row_crcs = np.frombuffer(raw[4], dtype=CHECKSUM_DTYPE)
        if row_crcs.size != n_states:
            raise SerializationError("row-checksum section size mismatch")
        bad = verify_row_checksums(table, row_crcs)
        if bad:
            raise IntegrityError(
                f"STT rows failed their CRC32 check: {bad[:8]}"
                + ("..." if len(bad) > 8 else "")
            )
        row_crcs = row_crcs.copy()
    else:
        row_crcs = stt_row_checksums(table)

    dfa = DFA(STT(table), offsets, ids, patterns)
    problems = validate_dfa(dfa)
    if problems:
        raise SerializationError(
            "DFA artifact failed validation: " + "; ".join(problems)
        )
    return LoadedDFA(
        dfa=dfa,
        version=version,
        case_insensitive=case_insensitive,
        row_checksums=row_crcs,
        extra=extra,
    )
