"""Core Aho-Corasick machinery: trie, automaton, DFA/STT, matchers.

This subpackage implements phases 1 and 2 of the AC algorithm exactly
as the paper describes them (Sections II and IV-B-1): pattern trie →
goto/failure/output automaton → dense DFA State Transition Table, plus
serial matchers and the chunk-overlap machinery both GPU kernels use.
"""

from repro.core.alphabet import ALPHABET_SIZE, MATCH_COLUMN, STT_COLUMNS, encode
from repro.core.automaton import AhoCorasickAutomaton, naive_find_all
from repro.core.chunking import ChunkPlan, plan_chunks, required_overlap
from repro.core.delta import BuiltVersion, DeltaBuilder, PatternDelta
from repro.core.dfa import DFA, build_dfa
from repro.core.integrity import (
    crc32_bytes,
    stt_row_checksums,
    verify_row_checksums,
)
from repro.core.match import Match, MatchResult
from repro.core.multicore import (
    MultiCoreScanResult,
    MulticoreMeasurement,
    measure_multicore,
    scan_multicore,
)
from repro.core.pattern_set import PatternSet, PatternStats
from repro.core.serial import match_serial, match_serial_python
from repro.core.serialization import (
    LoadedDFA,
    load_dfa,
    load_dfa_meta,
    save_dfa,
    validate_dfa,
    validate_stt,
)
from repro.core.spans import coverage, merge_spans, redact, split_uncovered, to_spans
from repro.core.stats import automaton_stats, visit_stats
from repro.core.streaming import StreamMatcher, scan_stream
from repro.core.stt import STT, STTStats
from repro.core.trie import Trie

__all__ = [
    "BuiltVersion",
    "DeltaBuilder",
    "PatternDelta",
    "crc32_bytes",
    "stt_row_checksums",
    "verify_row_checksums",
    "LoadedDFA",
    "load_dfa",
    "load_dfa_meta",
    "save_dfa",
    "validate_dfa",
    "validate_stt",
    "automaton_stats",
    "visit_stats",
    "coverage",
    "merge_spans",
    "redact",
    "split_uncovered",
    "to_spans",
    "StreamMatcher",
    "scan_stream",
    "ALPHABET_SIZE",
    "MATCH_COLUMN",
    "STT_COLUMNS",
    "encode",
    "AhoCorasickAutomaton",
    "naive_find_all",
    "ChunkPlan",
    "plan_chunks",
    "required_overlap",
    "DFA",
    "build_dfa",
    "Match",
    "MatchResult",
    "PatternSet",
    "PatternStats",
    "match_serial",
    "match_serial_python",
    "MultiCoreScanResult",
    "MulticoreMeasurement",
    "measure_multicore",
    "scan_multicore",
    "STT",
    "STTStats",
    "Trie",
]
