"""Exponential encoding of distance matrices and floor-log decoding.

A distance a maps to base**(x_tilde - a) with base = n + 1, so that an
ordinary matrix product simulates the min-plus product: the largest term of
each sum dominates because at most n terms contribute and every term is a
power of base > n. Distances come back via a floored logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import INF, DistMatrix

# largest usable binary exponent per float width, matching published limits
EMAX = {32: 127.9, 64: 1024.0}

# additive guard inside the floored log; base**k is not always exactly
# representable, so values can round to just below an integer boundary.
# Products are float64 at both width caps, so only the 64-bit guard exists;
# decode lowers it further at large n
FLOOR_LOG_GUARD = {64: 1e-9}


class FeasibilityError(RuntimeError):
    """Encoding would overflow the float exponent range."""


class DecodeError(RuntimeError):
    """Product matrix cannot be decoded back to distances."""


class NegativeEntryError(DecodeError):
    """Negative entry in a product matrix: the kernel corrupted the data."""


class NonFiniteEntryError(DecodeError):
    """Inf/NaN entry in a product matrix: the exponent range overflowed."""


@dataclass(frozen=True)
class EncodeParams:
    """Parameters shared by encode and decode of one distance product."""

    base: int
    x_tilde: int
    width: int = 64

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.x_tilde < 0:
            raise ValueError(f"x_tilde must be >= 0, got {self.x_tilde}")
        if self.width not in EMAX:
            raise ValueError(f"width must be 32 or 64, got {self.width}")

    def exponent_budget(self) -> float:
        """Binary exponent of the worst product entry, n * base**(2*x_tilde)."""
        return 2 * self.x_tilde * math.log2(self.base) + math.log2(self.base - 1)

    def is_feasible(self) -> bool:
        return self.exponent_budget() <= EMAX[self.width]


@dataclass(frozen=True)
class EncodedMatrix:
    """Exponential image of a DistMatrix; 0 marks unreachable pairs."""

    data: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        """Arithmetic width of the data: always 64, whatever the width cap."""
        return 64


@dataclass(frozen=True)
class PrecisionLimits:
    """Maximum diameter supported by a float width at a given node count."""

    n: int
    width: int
    emax: float
    paper_limit: float
    safe_limit: float


def params_for(m: DistMatrix, width: int = 64) -> EncodeParams:
    return EncodeParams(base=m.n + 1, x_tilde=max_finite(m), width=width)


def max_finite(m: DistMatrix) -> int:
    """Largest finite entry; 0 when all off-diagonal entries are unreachable."""
    # the diagonal is always finite, so the reduction is never empty
    return int(np.amax(m.data, initial=0.0, where=np.isfinite(m.data)))


def encode(m: DistMatrix, p: EncodeParams) -> EncodedMatrix:
    """Map finite entry a to base**(x_tilde - a), unreachable to 0, in float64.

    Refuses when the exponent budget exceeds the cap of p.width, so that the
    product cannot overflow.
    """
    if p.base != m.n + 1:
        raise ValueError(f"base {p.base} does not match n + 1 = {m.n + 1}")
    if not p.is_feasible():
        raise FeasibilityError(
            f"x_tilde={p.x_tilde} needs a binary exponent budget of "
            f"{p.exponent_budget():.1f} bits, above the {p.width}-bit limit "
            f"{EMAX[p.width]}"
        )
    a = m.data
    # one pass writes each entry's table index (inf clips to the zero slot at
    # x_tilde + 1), one gather reads the table; a feasible x_tilde is at most
    # 512, so every index fits in int16
    unreachable = p.x_tilde + 1
    idx = np.empty(a.shape, np.int16)
    np.minimum(a, unreachable, out=idx, casting="unsafe")
    # entries are nonnegative integers or inf, so only inf may clip to the
    # zero slot when no finite entry exceeds x_tilde
    if np.count_nonzero(idx == unreachable) != np.count_nonzero(a == INF):
        raise ValueError("x_tilde is smaller than the largest finite entry")
    table = np.zeros(unreachable + 1)
    table[:unreachable] = float(p.base) ** np.arange(p.x_tilde, -1, -1, dtype=np.float64)
    # indexing, unlike take, gathers without first widening idx to intp
    return EncodedMatrix(table[idx])


def decode_values(arr: np.ndarray, p: EncodeParams, out: np.ndarray | None = None) -> np.ndarray:
    """Distances of bare product entries encoded with p, as float64.

    Entry v > 0 becomes 2*x_tilde - floor(log_base(v) + guard); 0 becomes inf,
    because log(0) = -inf. out, when given, is a float64 array of arr's shape
    (arr itself to decode in place); otherwise a new array is returned.
    """
    # NaN and inf both make the max non-finite
    if not math.isfinite(np.max(arr, initial=0.0)):
        raise NonFiniteEntryError(
            "non-finite entry in product matrix: float exponent range "
            "overflowed (feasibility guard failed)"
        )
    if np.min(arr, initial=0.0) < 0:
        raise NegativeEntryError("negative entry in product matrix")
    # n tied witnesses give n * base**s, which lies log_base((n+1)/n) below
    # the integer s + 1; a guard of half that gap keeps the floor exact at
    # every n, not only while the gap exceeds the fixed guard
    gap = math.log1p(1 / (p.base - 1)) / math.log(p.base)
    guard = min(FLOOR_LOG_GUARD[64], 0.5 * gap)
    with np.errstate(divide="ignore"):
        logs = np.log(arr, out=out, dtype=np.float64)
    logs /= math.log(p.base)
    logs += guard
    np.floor(logs, out=logs)
    return np.subtract(2 * p.x_tilde, logs, out=logs)


def decode(c_prime: EncodedMatrix, p: EncodeParams) -> DistMatrix:
    """Recover distances from a product of two encoded matrices.

    Entry v > 0 becomes 2*x_tilde - floor(log_base(v) + guard); 0 becomes inf.
    The product is left unchanged.
    """
    return DistMatrix._trusted(decode_values(c_prime.data, p))


def precision_limits(n: int, width: int) -> PrecisionLimits:
    """Diameter limits imposed by the float exponent range at node count n.

    paper_limit bounds base**D itself; safe_limit bounds the worst product
    term n * base**(2*D) that actually occurs during decode, and is what the
    solver enforces.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if width not in EMAX:
        raise ValueError(f"width must be 32 or 64, got {width}")
    emax = EMAX[width]
    log_base = math.log2(n + 1)
    paper = emax / log_base
    safe = (emax - math.log2(n)) / (2 * log_base)
    return PrecisionLimits(n=n, width=width, emax=emax, paper_limit=paper, safe_limit=safe)
