"""Scale-free graph generation and the diameter of a solved matrix."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import max_finite
from .graph import INF, DistMatrix, Graph


@dataclass(frozen=True)
class GenSpec:
    n: int
    m_attach: int
    seed: int

    def __post_init__(self):
        if not self.n > self.m_attach >= 1:
            raise ValueError(
                f"need n > m_attach >= 1, got n={self.n}, m_attach={self.m_attach}"
            )


def generate_scale_free(spec: GenSpec) -> Graph:
    """Barabasi-Albert preferential attachment, deterministic per seed.

    Seeding rule: start from m_attach isolated nodes; the first added node
    links to all of them, and each later node picks m_attach distinct targets
    by drawing uniformly from the list of existing edge endpoints (degree-
    proportional). Edge count is therefore exactly (n - m_attach) * m_attach.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.m_attach
    # (u, v) of each edge in order: both the edge list and the
    # degree-proportional pool that targets are drawn from
    endpoints: list[int] = []
    for v in range(m, spec.n):
        if v == m:
            targets = list(range(m))
        else:
            picked: set[int] = set()
            while len(picked) < m:
                picked.add(endpoints[rng.integers(len(endpoints))])
            targets = sorted(picked)
        for u in targets:
            endpoints.append(u)
            endpoints.append(v)
    pairs = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    return Graph(spec.n, pairs[:, 0], pairs[:, 1], np.ones(len(pairs), dtype=np.int64))


class DiameterReport(NamedTuple):
    value: int
    disconnected: bool


def diameter(d: DistMatrix) -> DiameterReport:
    """Max finite entry of a solved matrix; unreachable pairs are reported
    via the disconnected flag, not folded into the value."""
    return DiameterReport(value=max_finite(d), disconnected=bool(d.data.max() == INF))


def estimate_diameter(n: int) -> float:
    """Small-world diameter estimate ln(n) + 1 (approximate for tiny n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.log(n) + 1.0
