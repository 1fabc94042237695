"""Exponential encoding of distance matrices and floor-log decoding.

A distance a maps to base**(x_tilde - a) with base = n + 1, so that an
ordinary matrix product simulates the min-plus product: the largest term of
each sum dominates because at most n terms contribute and every term is a
power of base > n. Distances come back via a floored logarithm.

EncodeParams.width is the float type in which codes are stored, multiplied
and summed, and EncodeParams.is_feasible the one proof that such a product
decodes exactly: its exponent budget fits the width's range, and the
rounding of encode, product and n-term sum moves no entry's logarithm by as
much as half the gap between the largest true sum, n * base**s, and the next
power of base. decode_values guards the floor with that half gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import INF, DistMatrix

# largest usable binary exponent per float width, matching published limits
EMAX = {32: 127.9, 64: 1024.0}

# share of the half decode gap that the product's rounding may use; the rest
# covers the float64 log, divide and add of decode (about 1e-14 in log_base
# units against a half gap above 4e-10 wherever the proof holds) and the
# float64 power computed before each table entry is rounded to its width
_GAP_SHARE = 0.99

# entries decode_values decodes per pass (512 KiB of float64 output), and
# about the entries encode indexes per row block
_DECODE_CHUNK = 1 << 16


class FeasibilityError(RuntimeError):
    """Encoding outside the proof: its product could overflow or misdecode."""


class DecodeError(RuntimeError):
    """Product matrix cannot be decoded back to distances."""


class NegativeEntryError(DecodeError):
    """Negative entry in a product matrix: the kernel corrupted the data."""


class NonFiniteEntryError(DecodeError):
    """Inf/NaN entry in a product matrix: the exponent range overflowed."""


@dataclass(frozen=True)
class EncodeParams:
    """Parameters shared by encode and decode of one distance product; width
    is the float type, 32 or 64 bits, of its codes, product and sums."""

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

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(f"float{self.width}")

    def is_feasible(self) -> bool:
        """True when a product of codes stored, multiplied and summed in
        dtype decodes exactly, whatever the summation order.

        Two conditions: the worst entry n * base**(2*x_tilde) fits the
        exponent range of width, and the relative error of every entry stays
        inside half the decode gap. Each term of an n-term sum passes through
        at most n + 2 roundings (its two codes, their product and n - 1
        additions), so with positive terms the error is at most gamma_(n+2) =
        k*u / (1 - k*u), k = n + 2, u the unit roundoff of dtype (Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 3). The error
        condition depends on n alone and holds up to n = 2880 in float32 and
        n = 66 772 474 in float64.
        """
        n = self.base - 1
        ku = (n + 2) * np.finfo(self.dtype).eps / 2
        # beyond this the bound is 1 or more (or undefined), which proves nothing
        if ku >= 0.5:
            return False
        delta = ku / (1 - ku)
        error_fits = -math.log1p(-delta) < _GAP_SHARE * 0.5 * math.log1p(1 / n)
        return error_fits and self.exponent_budget() <= EMAX[self.width]


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
    """Maximum diameter supported by the exponent range of a float width at
    a given node count; safe_limit is only the exponent half of the proof."""

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


def largest_float32_x_tilde(n: int) -> int | None:
    """Largest x_tilde whose products run in float32 at node count n; None
    when n is above the float32 rounding bound."""
    x = -1
    while EncodeParams(base=n + 1, x_tilde=x + 1, width=32).is_feasible():
        x += 1
    return x if x >= 0 else None


def encode_table(p: EncodeParams) -> np.ndarray:
    """The code of every distance a in 0..x_tilde, base**(x_tilde - a) at
    index a, and 0 for unreachable at index x_tilde + 1, as p.dtype.

    Every encoder takes its table from here, so this is the one place that
    refuses a p that is_feasible does not prove: no product of encoded
    values can overflow or decode wrongly.
    """
    if not p.is_feasible():
        bits = p.exponent_budget()
        why = f"at n={p.base - 1}: {p.width}-bit rounding may pass half the decode gap"
        if bits > EMAX[p.width]:
            why = f"needs {bits:.1f} exponent bits, above the {p.width}-bit limit {EMAX[p.width]}"
        raise FeasibilityError(f"x_tilde={p.x_tilde} {why}")
    table = np.zeros(p.x_tilde + 2, p.dtype)
    table[:-1] = float(p.base) ** np.arange(p.x_tilde, -1, -1, dtype=np.float64)
    return table


def encode(m: DistMatrix, p: EncodeParams, *, out: np.ndarray | None = None) -> EncodedMatrix:
    """Map finite entry a to base**(x_tilde - a), unreachable to 0, as
    p.dtype.

    Refuses, before any n x n allocation, a p that is_feasible does not
    prove. out, when given, is a contiguous array of m's shape and of
    p.dtype that receives the codes; otherwise a new array is returned.
    """
    if p.base != m.n + 1:
        raise ValueError(f"base {p.base} does not match n + 1 = {m.n + 1}")
    table = encode_table(p)
    a = m.data
    if out is None:
        out = np.empty(a.shape, p.dtype)
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
    because log(0) = -inf. The guard is half the decode gap. arr must be of
    p.dtype, and p proven by is_feasible. out, when given, is a contiguous
    float64 array of arr's shape; otherwise a new array is returned. out may
    share memory with arr in two ways: a float64 arr decodes in place as
    out=arr, and a float32 arr may fill the second half of out's bytes. Both
    are safe because entries are decoded in forward chunks and the bytes of
    out up to entry k never reach the bytes of arr's entries beyond k.
    """
    if arr.dtype != p.dtype:
        raise DecodeError(f"{arr.dtype} product decoded with {p.dtype} parameters")
    # NaN and inf both make the max non-finite
    if not math.isfinite(np.max(arr, initial=0.0)):
        raise NonFiniteEntryError(
            "non-finite entry in product matrix: float exponent range "
            "overflowed (feasibility guard failed)"
        )
    if np.min(arr, initial=0.0) < 0:
        raise NegativeEntryError("negative entry in product matrix")
    if not p.is_feasible():
        raise DecodeError(
            f"{p.dtype} product at n={p.base - 1}, x_tilde={p.x_tilde}: "
            "is_feasible does not prove its decode exact"
        )
    # n tied witnesses give n * base**s, which lies log_base((n+1)/n) below
    # the integer s + 1, and rounding can move an exact power base**s below
    # s by nearly half that gap (is_feasible bounds it), so a guard of the
    # half gap keeps the floor exact
    log_base = math.log(p.base)
    guard = 0.5 * math.log1p(1 / (p.base - 1)) / log_base
    if out is None:
        out = np.empty(arr.shape)
    src, dst = arr.reshape(-1), out.reshape(-1)
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
    term n * base**(2*D) that actually occurs during decode, the exponent
    half of EncodeParams.is_feasible.
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
