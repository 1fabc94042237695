"""Fixed benchmark graphs, generated by the benchmark's own code.

Each workload is one frozen topology (a Barabasi-Albert graph with a fixed
size, attachment count and topology seed). The ``--seed`` argument only
relabels the nodes and shuffles the edge lines, so every seed gives an
isomorphic graph: the same epochs, densities and kernel work, different
input bytes. The canonical edge list is checked against a recorded
fingerprint before anything is timed, so a change to the generator, to
``minplus_apsp.netgen`` or to numpy's random streams cannot silently change
a workload.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One frozen input graph and how the benchmark drives it.

    weighted=True turns each undirected edge into two directed edges with
    independent weights in 1..9 (drawn from the topology seed); otherwise
    the graph is undirected with unit weights. cli_runs is how many
    fresh-process CLI solves a run makes (0: the CLI is not run).
    """

    name: str
    n: int
    m_attach: int
    topo_seed: int
    weighted: bool
    cli_runs: int
    # (edge-line count, sha256 of the canonical edge-list text)
    fingerprint: tuple[int, str]
    why: str

    @property
    def directed(self) -> bool:
        return self.weighted


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "route1600", 1600, 7, 11, False, 5,
            (11151, "75cb98ce47089cb2f1af0ab217478fa713a3658f7f41574398f037cf1bc7b682"),
            "routing graph of acceptance criterion 6: one sparse then two dense "
            "epochs in about 1 s, so per-epoch fixed cost and O(n^2) passes weigh most",
        ),
        Workload(
            "wsf1600", 1600, 3, 7, True, 3,
            (9582, "5c5ca2bcbb31fe13457617cad39e99e85d6f35335a5bcbdd6a8447fe675cd220"),
            "directed scale-free graph with asymmetric weights 1..9: two sparse and "
            "three dense epochs, no symmetry or unit-weight shortcut, decode precision matters",
        ),
        Workload(
            "wsf3000", 3000, 3, 7, True, 1,
            (17982, "2b21d8d0c367e2cae252de088042d654a000f7702df568d64d94fc03df2b24a2"),
            "the same construction at n=3000: about 7 s per solve, too few solves in "
            "a 25 s run to be steady on a 2-vCPU VM, so it is run by hand",
        ),
        Workload(
            "sf6000", 6000, 3, 7, False, 0,
            (17991, "1836377e6b0bb00df525262524e871c71297fbe0e2883da4aef24426bc5f5d4b"),
            "large unweighted scale-free graph, dense-kernel and memory bound; "
            "about 30 s per solve, so it is run by hand, not from BENCHMARK.json",
        ),
        Workload(
            "smoke-route", 200, 7, 11, False, 1,
            (1351, "748032c9360ee861b3deaa298d6db0f2dcd23cbd665d6e75273210e47095f0f3"),
            "tiny route-style graph to check the harness in seconds",
        ),
        Workload(
            "smoke-wsf", 300, 3, 7, True, 1,
            (1782, "874d7a3cdacb21bde989602117226d2ac64eeb5135c77e42ef6ec70707b1a38a"),
            "tiny weighted directed graph to check the harness in seconds",
        ),
    )
}

# workload sets for the report command
SETS = {
    "smoke": ("smoke-route", "smoke-wsf"),
    "bench": ("route1600", "wsf1600"),  # the workloads BENCHMARK.json lists
    "all": ("route1600", "wsf1600", "wsf3000", "sf6000"),
}


def scale_free_edges(n: int, m_attach: int, seed: int) -> list[tuple[int, int]]:
    """Barabasi-Albert preferential attachment.

    Start from m_attach isolated nodes; the first added node links to all of
    them, each later node picks m_attach distinct targets by drawing
    uniformly from the list of existing edge endpoints.
    """
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    endpoints: list[int] = []
    for v in range(m_attach, n):
        if v == m_attach:
            targets = list(range(m_attach))
        else:
            picked: set[int] = set()
            while len(picked) < m_attach:
                picked.add(endpoints[rng.integers(len(endpoints))])
            targets = sorted(picked)
        for u in targets:
            edges.append((u, v))
            endpoints.append(u)
            endpoints.append(v)
    return edges


@dataclass(frozen=True)
class Instance:
    """A generated input: edge arrays (one entry per edge line) and the text."""

    n: int
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    text: str


def _text(n: int, src, dst, weight, weighted: bool) -> str:
    if weighted:
        lines = [f"{u} {v} {w}" for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist())]
    else:
        lines = [f"{u} {v}" for u, v in zip(src.tolist(), dst.tolist())]
    return f"#n {n}\n" + "\n".join(lines) + "\n"


def canonical(wl: Workload) -> Instance:
    pairs = np.array(scale_free_edges(wl.n, wl.m_attach, wl.topo_seed), dtype=np.int64)
    if wl.weighted:
        # weights of u->v and v->u for each undirected edge, drawn in edge order
        w2 = np.random.default_rng(wl.topo_seed).integers(1, 10, size=(len(pairs), 2))
        src = np.column_stack([pairs[:, 0], pairs[:, 1]]).ravel()
        dst = np.column_stack([pairs[:, 1], pairs[:, 0]]).ravel()
        weight = w2.ravel()
    else:
        src, dst = pairs[:, 0], pairs[:, 1]
        weight = np.ones(len(pairs), dtype=np.int64)
    return Instance(wl.n, wl.directed, src, dst, weight, _text(wl.n, src, dst, weight, wl.weighted))


def fingerprint(inst: Instance) -> tuple[int, str]:
    return len(inst.src), hashlib.sha256(inst.text.encode()).hexdigest()


def build(wl: Workload, seed: int) -> Instance:
    """The workload's graph with node labels and line order permuted by seed.

    Raises ValueError when the canonical graph does not match its recorded
    fingerprint.
    """
    base = canonical(wl)
    got = fingerprint(base)
    if got != wl.fingerprint:
        raise ValueError(
            f"workload {wl.name}: canonical graph fingerprint {got} does not match "
            f"the recorded {wl.fingerprint}; the inputs changed"
        )
    rng = np.random.default_rng(seed)
    label = rng.permutation(wl.n)
    order = rng.permutation(len(base.src))
    src, dst, weight = label[base.src[order]], label[base.dst[order]], base.weight[order]
    return Instance(wl.n, wl.directed, src, dst, weight, _text(wl.n, src, dst, weight, wl.weighted))
