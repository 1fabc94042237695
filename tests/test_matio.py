import struct
import tracemalloc

import numpy as np

import pytest

from minplus_apsp import INF, DistMatrix
from minplus_apsp.matio import (
    distance_csv_blocks,
    read_distance_binary,
    write_distance_binary,
    write_distance_csv,
)


def per_entry_csv(m: DistMatrix) -> str:
    """Reference formatter: one Python conversion per entry."""
    lines = []
    for row in m.data:
        lines.append(",".join("INF" if not np.isfinite(x) else str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def random_rows(rng, n, top):
    a = rng.integers(0, top + 1, size=(n, n)).astype(np.float64)
    a[rng.random((n, n)) < 0.2] = INF
    np.fill_diagonal(a, 0.0)
    return DistMatrix(a)


class TestDistanceCsv:
    def test_by_hand(self):
        m = DistMatrix.from_rows([[0, 12, INF], [3, 0, 105], [INF, INF, 0]])
        assert "".join(distance_csv_blocks(m)) == "0,12,INF\n3,0,105\nINF,INF,0\n"

    def test_matches_per_entry_formatter(self):
        rng = np.random.default_rng(17)
        # 12x12 with entries up to 100: multi-digit tokens from the 0..top table
        # 6x6 with entries up to 10**12: distinct values beyond the matrix size
        for n, top in ((1, 0), (2, 1), (12, 100), (40, 9), (6, 10**12)):
            m = random_rows(rng, n, top)
            assert "".join(distance_csv_blocks(m)) == per_entry_csv(m)

    def test_written_in_blocks_of_rows(self, tmp_path):
        # more rows than one block holds, and a last block that is not full,
        # for both token tables
        rng = np.random.default_rng(18)
        path = tmp_path / "d.csv"
        for n, top in ((150, 30), (70, 10**12)):
            m = random_rows(rng, n, top)
            blocks = list(distance_csv_blocks(m))
            assert [b.count("\n") for b in blocks] == [64] * (n // 64) + [n % 64]
            write_distance_csv(m, path)
            assert path.read_bytes() == per_entry_csv(m).encode()


class TestDistanceBinary:
    M = DistMatrix.from_rows([[0, 1, INF], [1, 0, 5], [INF, 5, 0]])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.bin"
        write_distance_binary(self.M, path)
        assert np.array_equal(read_distance_binary(path).data, self.M.data)

    def test_matches_per_entry_packing(self, tmp_path):
        # more rows than one block of 64, and a last block that is not full
        path = tmp_path / "d.bin"
        for n, top in ((3, 5), (70, 10**12)):
            m = random_rows(np.random.default_rng(19), n, top)
            want = struct.pack("<4sQI", b"APSP", n, 64) + b"".join(
                struct.pack("<Q", int(x) if np.isfinite(x) else 2**64 - 1)
                for x in m.data.reshape(-1)
            )
            write_distance_binary(m, path)
            assert path.read_bytes() == want

    def test_written_in_blocks_of_rows(self, tmp_path):
        # the uint64 copy is built one block of rows at a time, so writing
        # holds far less than the matrix itself
        n = 512
        m = random_rows(np.random.default_rng(20), n, 1000)
        tracemalloc.start()
        try:
            write_distance_binary(m, tmp_path / "d.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_read_in_blocks_of_rows(self, tmp_path):
        # the file is read 64 rows at a time into the result, so reading
        # holds little more than the matrix it returns
        n = 512
        m = random_rows(np.random.default_rng(21), n, 1000)
        path = tmp_path / "d.bin"
        write_distance_binary(m, path)
        tracemalloc.start()
        try:
            back = read_distance_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, m.data)
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("size", [0, 5])
    def test_short_header_rejected(self, tmp_path, size):
        path = tmp_path / "d.bin"
        path.write_bytes(b"APSP\x03"[:size])
        with pytest.raises(ValueError, match=f"expected a 16-byte header, file has {size} bytes"):
            read_distance_binary(path)

    @pytest.mark.parametrize("delta", [-8, -1, 1, 8])
    def test_payload_length_checked(self, tmp_path, delta):
        # a 3x3 matrix is 16 header bytes plus 9 uint64 values
        path = tmp_path / "d.bin"
        write_distance_binary(self.M, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:delta] if delta < 0 else blob + b"\0" * delta)
        with pytest.raises(ValueError, match=f"expected 88 bytes for n=3, file has {88 + delta}"):
            read_distance_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        write_distance_binary(self.M, path)
        path.write_bytes(b"APSQ" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="bad magic b'APSQ'"):
            read_distance_binary(path)

    @pytest.mark.parametrize("width", [32, 0])
    def test_stored_width_other_than_64_rejected(self, tmp_path, width):
        # the width field follows the magic and n in the header
        path = tmp_path / "d.bin"
        write_distance_binary(self.M, path)
        blob = path.read_bytes()
        path.write_bytes(struct.pack("<4sQI", b"APSP", 3, width) + blob[16:])
        with pytest.raises(ValueError, match=f"unsupported stored width {width}"):
            read_distance_binary(path)
