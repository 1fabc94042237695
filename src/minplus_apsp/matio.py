"""Matrix and graph serialization: CSV, raw binary, edge lists."""
from __future__ import annotations

import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .codec import max_finite, recast
from .graph import BLOCK_ROWS, INF, DistMatrix, Graph

MAGIC = b"APSP"
INF_SENTINEL = 2**64 - 1
_HEADER = struct.Struct("<4sQI")  # magic, n, width


def distance_csv_blocks(m: DistMatrix) -> Iterator[str]:
    """CSV rows of integers, INF for unreachable, in blocks of BLOCK_ROWS
    rows, so that writing them holds one block's codes, tokens and text.

    Each entry becomes an index into a table of its formatted token, so only
    the distinct values are formatted in Python.
    """
    a = m.data
    blocks = [a[i : i + BLOCK_ROWS] for i in range(0, m.n, BLOCK_ROWS)]
    top = max_finite(m)
    if top < a.size:
        # entries are integers 0..top, so each is its own index; top + 1 is INF
        values = None
        tokens = [str(v) for v in range(int(top) + 1)] + ["INF"]
    else:
        # a table of every integer up to top would outgrow the matrix
        values = np.unique(a)
        tokens = ["INF" if v == INF else str(int(v)) for v in values]
    table = np.array(tokens, dtype=object)
    for b in blocks:
        if values is None:
            codes = np.where(np.isfinite(b), b, top + 1).astype(np.intp)
        else:
            codes = np.searchsorted(values, b)
        yield "".join(",".join(row) + "\n" for row in table[codes].tolist())


def write_distance_csv(m: DistMatrix, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(distance_csv_blocks(m))


def write_distance_binary(m: DistMatrix, path: str | Path) -> None:
    """Little-endian header (magic, n, width) then row-major uint64 with the
    max value as the unreachable sentinel, written one row block at a time."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, m.n, 64))
        for i in range(0, m.n, BLOCK_ROWS):
            b = m.data[i : i + BLOCK_ROWS]
            raw = np.where(np.isfinite(b), b, 0).astype("<u8")
            raw[~np.isfinite(b)] = INF_SENTINEL
            fh.write(raw)


def read_distance_binary(path: str | Path) -> DistMatrix:
    """The matrix write_distance_binary wrote, read BLOCK_ROWS rows at a
    time and recast into the result once the file's size matches its header."""
    size = Path(path).stat().st_size
    if size < _HEADER.size:
        raise ValueError(f"expected a {_HEADER.size}-byte header, file has {size} bytes")
    with open(path, "rb") as fh:
        magic, n, width = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if width != 64:
            raise ValueError(f"unsupported stored width {width}")
        want = _HEADER.size + 8 * n * n
        if size != want:
            raise ValueError(f"expected {want} bytes for n={n}, file has {size} bytes")
        out = np.empty((n, n))
        for i in range(0, n, BLOCK_ROWS):
            raw = np.fromfile(fh, "<u8", min(BLOCK_ROWS, n - i) * n).reshape(-1, n)
            recast(raw, out[i : i + BLOCK_ROWS], INF_SENTINEL, INF)
    return DistMatrix(out)


def edge_list_text(g: Graph) -> str:
    """Edge-list format with an explicit "#n <count>" header."""
    lines = [f"#n {g.n}"]
    lines += [
        f"{u} {v} {w}" for u, v, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    ]
    return "\n".join(lines) + "\n"
