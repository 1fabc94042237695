"""Matrix and graph serialization: CSV, raw binary, edge lists."""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .graph import INF, DistMatrix, Graph

MAGIC = b"APSP"
INF_SENTINEL = 2**64 - 1
_HEADER = struct.Struct("<4sQI")  # magic, n, width


def distance_csv(m: DistMatrix) -> str:
    """Rows of comma-separated integers with the literal INF for unreachable.

    Each entry becomes an index into a table of its formatted token, so only
    the distinct values are formatted in Python.
    """
    a = m.data
    finite = np.isfinite(a)
    top = int(np.amax(a, initial=0.0, where=finite))
    if top < a.size:
        # entries are integers 0..top, so each is its own index; top + 1 is INF
        codes = np.where(finite, a, top + 1).astype(np.intp)
        tokens = [str(v) for v in range(top + 1)] + ["INF"]
    else:
        # a table of every integer up to top would outgrow the matrix
        values, codes = np.unique(a, return_inverse=True)
        tokens = ["INF" if v == INF else str(int(v)) for v in values]
    table = np.array(tokens, dtype=object)[codes.reshape(a.shape)]
    return "\n".join(",".join(row) for row in table.tolist()) + "\n"


def write_distance_csv(m: DistMatrix, path: str | Path) -> None:
    Path(path).write_text(distance_csv(m))


def write_distance_binary(m: DistMatrix, path: str | Path) -> None:
    """Little-endian header (magic, n, width) then row-major uint64 with the
    max value as the unreachable sentinel."""
    raw = np.where(np.isfinite(m.data), m.data, 0).astype("<u8")
    raw[~np.isfinite(m.data)] = INF_SENTINEL
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, m.n, 64))
        fh.write(raw.tobytes())


def read_distance_binary(path: str | Path) -> DistMatrix:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"expected a {_HEADER.size}-byte header, file has {len(blob)} bytes")
    magic, n, width = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if width != 64:
        raise ValueError(f"unsupported stored width {width}")
    want = _HEADER.size + 8 * n * n
    if len(blob) != want:
        raise ValueError(f"expected {want} bytes for n={n}, file has {len(blob)} bytes")
    raw = np.frombuffer(blob, dtype="<u8", offset=_HEADER.size).reshape(n, n)
    out = raw.astype(np.float64)
    out[raw == INF_SENTINEL] = INF
    return DistMatrix(out)


def edge_list_text(g: Graph) -> str:
    """Edge-list format with an explicit "#n <count>" header."""
    lines = [f"#n {g.n}"]
    lines += [
        f"{u} {v} {w}" for u, v, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    ]
    return "\n".join(lines) + "\n"
