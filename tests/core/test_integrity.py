"""Contract tests for the CRC32 integrity primitives.

The row checksums are persisted in ``REPRODFA`` artifacts and compared
across hosts, so their values are a format contract, not an
implementation detail: every test here compares against ``zlib`` over
explicit little-endian bytes or against a golden vector.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.integrity import (
    BLOCK_BYTES,
    CHECKSUM_DTYPE,
    block_checksums,
    crc32_bytes,
    stt_row_checksums,
    verify_block_checksums,
    verify_row_checksums,
)

#: Row CRC32s of the STT of the paper's {he, she, his, hers} DFA (Fig. 3).
PAPER_ROW_CRCS = [
    0xA01C5DD5, 0xF254571A, 0x56F7C787, 0xAF34AA2C, 0x6CD7C623,
    0x56F7C787, 0x26B4F14D, 0x1788CD49, 0x356854E8, 0x1788CD49,
]

COLUMNS = 257
I32 = np.iinfo(np.int32)


def reference_row_crcs(table) -> np.ndarray:
    """One ``zlib.crc32`` per row over the row's ``<i4`` bytes."""
    return np.array(
        [zlib.crc32(np.asarray(r, "<i4").tobytes()) for r in table],
        dtype="<u4",
    )


@st.composite
def tables(draw):
    """A table of 0-300 rows x 257 columns in one dtype and one layout.

    Every layout is a different object holding the same values: a
    C-ordered array, a Fortran-ordered one, or a strided view sliced
    out of a larger array.
    """
    rows = draw(st.integers(0, 300))
    dtype = draw(st.sampled_from(["<i4", ">i4", "<i8"]))
    layout = draw(st.sampled_from(["C", "F", "row_slice", "col_slice"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(I32.min, I32.max, (2 * rows, COLUMNS + 2),
                          endpoint=True)
    if rows:
        values[0, :2] = I32.min, I32.max
    values = values.astype(dtype)
    if layout == "row_slice":
        return values[::2, 1:-1]
    if layout == "col_slice":
        return values[:rows, 2:]
    table = values[:rows, :COLUMNS]
    return np.asfortranarray(table) if layout == "F" else table.copy()


class TestRowChecksums:
    def test_golden_vector_paper_dfa(self, paper_dfa):
        crcs = stt_row_checksums(paper_dfa.stt)
        assert crcs.dtype == CHECKSUM_DTYPE
        assert crcs.tolist() == PAPER_ROW_CRCS

    def test_table_and_stt_agree(self, paper_dfa):
        assert np.array_equal(
            stt_row_checksums(paper_dfa.stt.table),
            stt_row_checksums(paper_dfa.stt),
        )

    @given(tables())
    def test_equals_zlib_over_little_endian_rows(self, table):
        crcs = stt_row_checksums(table)
        assert crcs.dtype == np.dtype("<u4")
        assert crcs.shape == (table.shape[0],)
        assert np.array_equal(crcs, reference_row_crcs(table))

    def test_empty_table(self):
        crcs = stt_row_checksums(np.zeros((0, COLUMNS), dtype=np.int32))
        assert crcs.dtype == CHECKSUM_DTYPE and crcs.size == 0


class TestVerifyRowChecksums:
    def test_intact_table_reports_nothing(self, paper_dfa):
        table = paper_dfa.stt.table
        assert verify_row_checksums(table, PAPER_ROW_CRCS) == []

    @given(
        tables().filter(lambda t: t.shape[0] > 0),
        st.integers(0, 2**32 - 1),
    )
    def test_one_bit_flip_names_exactly_its_row(self, table, seed):
        table = np.array(table, dtype="<i4", order="C")
        expected = stt_row_checksums(table)
        rng = np.random.default_rng(seed)
        row = int(rng.integers(table.shape[0]))
        byte = int(rng.integers(COLUMNS * 4))
        table.view(np.uint8)[row, byte] ^= 1 << int(rng.integers(8))
        assert verify_row_checksums(table, expected) == [row]

    @pytest.mark.parametrize(
        "expected", [PAPER_ROW_CRCS[:-1], PAPER_ROW_CRCS + [0], []]
    )
    def test_row_count_mismatch_reports_minus_one(self, paper_dfa, expected):
        assert verify_row_checksums(paper_dfa.stt.table, expected) == [-1]


class TestCrc32Bytes:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"ushers and sheriffs",
            bytearray(b"ushers"),
            memoryview(b"ushers"),
        ],
    )
    def test_byte_buffers(self, data):
        assert crc32_bytes(data) == zlib.crc32(bytes(data))

    def test_arrays_hash_their_c_order_bytes(self):
        table = np.arange(24, dtype=np.int32).reshape(4, 6)
        for arr in (table, table.T, table[::2, 1:], table.astype(">i4")):
            want = zlib.crc32(np.ascontiguousarray(arr).tobytes())
            assert crc32_bytes(arr) == want


class TestBlockChecksums:
    """The device's in-memory block CRCs: one ``zlib.crc32`` per block."""

    @pytest.mark.parametrize(
        "nbytes", [0, 1, BLOCK_BYTES - 1, BLOCK_BYTES, 2 * BLOCK_BYTES + 3]
    )
    def test_one_crc_per_block_last_may_be_short(self, nbytes):
        data = np.random.default_rng(nbytes).integers(
            0, 256, size=nbytes, dtype=np.uint8
        )
        raw = data.tobytes()
        expected = [
            zlib.crc32(raw[i : i + BLOCK_BYTES])
            for i in range(0, nbytes, BLOCK_BYTES)
        ]
        assert block_checksums(data).tolist() == expected
        assert block_checksums(data).dtype == CHECKSUM_DTYPE

    def test_wide_arrays_hash_their_bytes(self):
        arr = np.arange(3 * BLOCK_BYTES // 4, dtype=np.int32)
        assert block_checksums(arr).tolist() == block_checksums(
            arr.view(np.uint8)
        ).tolist()
        assert block_checksums(arr).size == 3

    def test_one_bit_flip_names_exactly_its_block(self):
        arr = np.zeros(3 * BLOCK_BYTES // 2, dtype=np.uint16)
        expected = block_checksums(arr)
        assert verify_block_checksums(arr, expected) == []
        arr.view(np.uint8)[BLOCK_BYTES + 7] ^= 0x10
        assert verify_block_checksums(arr, expected) == [1]
