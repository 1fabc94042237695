"""Correctness gate: every checked solve against scipy csgraph Dijkstra.

Results are compared outside the timed region. So that the check does not
inflate the solver's peak RSS, a solve's distances are reduced at once to a
compact uint16 code array keyed by its sha256; only one array per distinct
result is kept (one, normally: the solver is deterministic) until the
reference exists.
"""
from __future__ import annotations

import hashlib
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

# code 65535 is unreachable; 65534 marks an entry that is not a distance at
# all (negative, fractional, NaN or too large). Admissible distances stay far
# below 2**16 under the solver's precision limits, so no true distance uses
# either code.
_INF_CODE = 65535
_BAD_CODE = 65534


def codes(d: np.ndarray) -> np.ndarray:
    out = np.full(d.shape, _BAD_CODE, dtype=np.uint16)
    out[np.isposinf(d)] = _INF_CODE
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(d) & (d >= 0) & (d < _BAD_CODE) & (d == np.floor(d))
    out[ok] = d[ok].astype(np.uint16)
    return out


def dijkstra(n: int, src, dst, weight, directed: bool) -> tuple[np.ndarray, float]:
    """Reference distances and the seconds csgraph took, from the benchmark's
    own edge arrays (not from the library's parser)."""
    start = time.perf_counter()
    a = sp.csr_matrix((np.asarray(weight, dtype=np.float64), (src, dst)), shape=(n, n))
    ref = shortest_path(a, method="D", directed=directed)
    return ref, time.perf_counter() - start


class Gate:
    """Counts attempted and failed solves and wrong distance entries.

    A solve fails when it raises (FeasibilityError included), reports
    converged=False, or has a wrong entry.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_pairs = 0
        self._kept: dict[str, np.ndarray] = {}
        self._pending: list[str | None] = []  # digest per solve, None = failed already

    def record(self, distances: np.ndarray | None, converged: bool = True) -> None:
        """Record one solve; distances=None means it raised."""
        self.attempted += 1
        if distances is None or not converged:
            self.failed += 1
            self._pending.append(None)
            return
        c = codes(distances)
        digest = hashlib.sha256(c.tobytes()).hexdigest()
        self._kept.setdefault(digest, c)
        self._pending.append(digest)

    def verify(self, reference: np.ndarray) -> None:
        """Compare every recorded solve with the reference distances."""
        ref = codes(reference)
        wrong = {d: int(np.count_nonzero(c != ref)) for d, c in self._kept.items()}
        for digest in self._pending:
            if digest is not None:
                self.wrong_pairs += wrong[digest]
                self.failed += wrong[digest] > 0
        self._kept.clear()
        self._pending.clear()

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.wrong_pairs == 0


def solve_checked(solve):
    """Call solve(); returns (seconds, SolveResult or None if it raised)."""
    from minplus_apsp import DecodeError, FeasibilityError

    start = time.perf_counter()
    try:
        result = solve()
    except (FeasibilityError, DecodeError, ValueError, MemoryError):
        result = None
    return time.perf_counter() - start, result


def record_result(gate: Gate, result) -> None:
    if result is None:
        gate.record(None)
    else:
        gate.record(result.distances.data, result.converged)


def self_check() -> str:
    """Show that the gate rejects a corrupted matrix and counts a
    FeasibilityError as a failure. Raises RuntimeError when it does not."""
    from minplus_apsp import parse_edge_list, power_law_bound, to_distance_matrix

    src, dst, weight = np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1, 2, 3])
    text = "#n 4\n0 1 1\n1 2 2\n2 3 3\n"
    w = to_distance_matrix(parse_edge_list(text))
    ref, _ = dijkstra(4, src, dst, weight, directed=False)

    clean = Gate()
    record_result(clean, solve_checked(lambda: power_law_bound(w))[1])
    clean.verify(ref)

    corrupted = Gate()
    result = power_law_bound(w)
    bad = result.distances.data.copy()
    bad[0, 3] += 1
    bad[2, 1] = 0.5
    corrupted.record(bad)
    corrupted.verify(ref)

    # x_tilde=400 at n=2 needs ~1270 exponent bits, above the 64-bit limit
    infeasible = Gate()
    far = to_distance_matrix(parse_edge_list("#n 2\n0 1 400\n"))
    record_result(infeasible, solve_checked(lambda: power_law_bound(far))[1])

    if not clean.correct or clean.wrong_pairs:
        raise RuntimeError("gate self-check: a correct solve was rejected")
    if corrupted.correct or corrupted.wrong_pairs != 2 or corrupted.failed != 1:
        raise RuntimeError("gate self-check: a corrupted matrix was not rejected")
    if infeasible.correct or infeasible.failed != 1:
        raise RuntimeError("gate self-check: a FeasibilityError was not counted as failed")
    return (
        "gate self-check ok: clean solve accepted; corrupted matrix rejected "
        f"({corrupted.wrong_pairs} wrong pairs); FeasibilityError counted as "
        f"{infeasible.failed} failed of {infeasible.attempted}"
    )
