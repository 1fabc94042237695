"""Exponential encoding of distance matrices and floor-log decoding.

A distance a maps to base**(x_tilde - a) with base = n + 1, so that an
ordinary matrix product simulates the min-plus product: the largest term of
each sum dominates because at most n terms contribute and every term is a
power of base > n. Distances come back via a floored logarithm.

Codes are float64 by default. The solver stores them in float32 where
float32_exact proves that a float32 product decodes exactly: its exponent
budget fits the float32 range, and the rounding of encode, product and n-term
sum moves no entry's logarithm by as much as half the gap between the largest
true sum, n * base**s, and the next power of base. decode_values then guards
the floor with that half gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import INF, DistMatrix

# largest usable binary exponent per float width, matching published limits
EMAX = {32: 127.9, 64: 1024.0}

# additive guard inside the floored log of a float64 product; base**k is not
# always exactly representable, so values can round to just below an integer
# boundary. decode lowers it to half the decode gap at large n; a float32
# product, whose rounding error is far larger, always takes the half gap
_FLOOR_LOG_GUARD = 1e-9

# unit roundoff of float32 (round to nearest)
_U32 = 2.0**-24
# share of the half decode gap that float32 rounding may use; the rest
# covers the float64 log, divide and add of decode (about 1e-14 in log_base
# units against a half gap above 2e-5) and the float64 power computed before
# each table entry is rounded to float32 (a few 2**-53 on top of 2**-24)
_FLOAT32_GAP_SHARE = 0.99

# entries decode_values decodes per pass (512 KiB of float64 output), and
# about the entries encode indexes per row block
_DECODE_CHUNK = 1 << 16


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
        """Arithmetic width of the data in bits: 32 or 64."""
        return self.data.dtype.itemsize * 8


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


def float32_exact(p: EncodeParams) -> bool:
    """True when a product of codes stored, multiplied and summed in float32
    decodes exactly, whatever the summation order.

    Two conditions: the worst entry n * base**(2*x_tilde) fits the float32
    exponent range, and the relative error of every entry stays inside half
    the decode gap. Each term of an n-term sum passes through at most n + 2
    roundings (its two codes, their product and n - 1 additions), so with
    positive terms the error is at most gamma_(n+2) = k*u / (1 - k*u), k =
    n + 2 (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    The error condition depends on n alone and holds up to n = 2880.
    """
    n = p.base - 1
    ku = (n + 2) * _U32
    # beyond this the bound is 1 or more (or undefined), which proves nothing
    if ku >= 0.5:
        return False
    delta = ku / (1 - ku)
    error_fits = -math.log1p(-delta) < _FLOAT32_GAP_SHARE * 0.5 * math.log1p(1 / n)
    return error_fits and p.exponent_budget() <= EMAX[32]


def largest_float32_x_tilde(n: int) -> int | None:
    """Largest x_tilde whose products run in float32 at node count n; None
    when n is above the bound of float32_exact."""
    x = -1
    while float32_exact(EncodeParams(base=n + 1, x_tilde=x + 1)):
        x += 1
    return x if x >= 0 else None


def encode_table(p: EncodeParams, dtype=np.float64) -> np.ndarray:
    """The code of every distance a in 0..x_tilde, base**(x_tilde - a) at
    index a, and 0 for unreachable at index x_tilde + 1, as dtype.

    Every encoder takes its table from here, so this is the one place that
    refuses an exponent budget above the cap of p.width: no product of
    encoded values can overflow.
    """
    if not p.is_feasible():
        raise FeasibilityError(
            f"x_tilde={p.x_tilde} needs a binary exponent budget of "
            f"{p.exponent_budget():.1f} bits, above the {p.width}-bit limit "
            f"{EMAX[p.width]}"
        )
    table = np.zeros(p.x_tilde + 2, dtype)
    table[:-1] = float(p.base) ** np.arange(p.x_tilde, -1, -1, dtype=np.float64)
    return table


def encode(
    m: DistMatrix, p: EncodeParams, dtype=np.float64, out: np.ndarray | None = None
) -> EncodedMatrix:
    """Map finite entry a to base**(x_tilde - a), unreachable to 0, as dtype
    (float32 only where float32_exact(p) admits it).

    Refuses when the exponent budget exceeds the cap of p.width, so that the
    product cannot overflow. out, when given, is a contiguous array of m's
    shape and of dtype that receives the codes; otherwise a new array is
    returned.
    """
    if p.base != m.n + 1:
        raise ValueError(f"base {p.base} does not match n + 1 = {m.n + 1}")
    table = encode_table(p, dtype)
    a = m.data
    if out is None:
        out = np.empty(a.shape, dtype)
    # per row block, one pass writes each entry's table index (inf clips to
    # the zero slot at x_tilde + 1) and one gather reads the table; a
    # feasible x_tilde is at most 512, so every index fits in int16
    unreachable = p.x_tilde + 1
    rows = max(1, _DECODE_CHUNK // m.n)
    idx = np.empty((rows, m.n), np.int16)
    for i in range(0, m.n, rows):
        b = a[i : i + rows]
        ix = np.minimum(b, unreachable, out=idx[: len(b)], casting="unsafe")
        # entries are nonnegative integers or inf, so only inf may clip to
        # the zero slot when no finite entry exceeds x_tilde
        if np.count_nonzero(ix == unreachable) != np.count_nonzero(b == INF):
            raise ValueError("x_tilde is smaller than the largest finite entry")
        # every index lies in 0..x_tilde + 1, so clip never acts; it spares
        # take the buffered copy of out that its default mode makes
        np.take(table, ix, out=out[i : i + rows], mode="clip")
    return EncodedMatrix(out)


def decode_values(arr: np.ndarray, p: EncodeParams, out: np.ndarray | None = None) -> np.ndarray:
    """Distances of bare product entries encoded with p, as float64.

    Entry v > 0 becomes 2*x_tilde - floor(log_base(v) + guard); 0 becomes inf,
    because log(0) = -inf. The guard follows arr's dtype: half the decode gap
    for float32, the smaller of _FLOOR_LOG_GUARD and that for float64.
    out, when given, is a contiguous float64 array of arr's shape; otherwise
    a new array is returned. out may share memory with arr in two ways: a
    float64 arr decodes in place as out=arr, and a float32 arr may fill the
    second half of out's bytes. Both are safe because entries are decoded in
    forward chunks and the bytes of out up to entry k never reach the bytes
    of arr's entries beyond k.
    """
    single = arr.dtype == np.float32
    if single and not float32_exact(p):
        raise DecodeError(
            f"float32 product at n={p.base - 1}, x_tilde={p.x_tilde}: "
            "float32_exact does not prove its decode exact"
        )
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
    # every n, not only while the gap exceeds the fixed guard. float32
    # rounding can move an exact power base**s below s by nearly the half
    # gap (float32_exact bounds it), so its guard is the whole half gap
    gap = math.log1p(1 / (p.base - 1)) / math.log(p.base)
    guard = 0.5 * gap if single else min(_FLOOR_LOG_GUARD, 0.5 * gap)
    if out is None:
        out = np.empty(arr.shape)
    src, dst = arr.reshape(-1), out.reshape(-1)
    log_base = math.log(p.base)
    # chunks that fit the cache: the five passes below read and write each
    # chunk once from memory instead of the whole array five times
    with np.errstate(divide="ignore"):
        for i in range(0, src.size, _DECODE_CHUNK):
            logs = dst[i : i + _DECODE_CHUNK]
            np.log(src[i : i + _DECODE_CHUNK], out=logs, dtype=np.float64)
            logs /= log_base
            logs += guard
            np.floor(logs, out=logs)
            np.subtract(2 * p.x_tilde, logs, out=logs)
    return out


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
