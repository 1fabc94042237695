"""Exponential encoding of distance matrices and exponent decoding.

The base is the power of two base_for(n) = 2**k above 2n. A distance a maps
to 2**(k*(x_tilde - a) - c), with the offset c of the float type (_OFFSET),
so every code and every product of two codes is an exact power of two. An
ordinary matrix product then simulates the min-plus product: the entry for
distance d sums at most n powers of two, the largest 2**E with
E = k*(2*x_tilde - d) - 2c, and the sum lies in [2**E, 2**(E + k)). So its
binary exponent e gives d = 2*x_tilde - (e + 2c) // k, read from the float's
bits with one shift and one table lookup.

EncodeParams.width is the float type in which codes are stored, multiplied
and summed, and EncodeParams.is_feasible the one proof that such a product
decodes exactly.

Distances between products are int16, UNREACHABLE16 for unreachable, and
one conversion leads each way: to_int16 from float64, gather_codes to
codes (gather_code_rows for a whole matrix), from_int16 to a float64
DistMatrix. The epochs, encode and decode share them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BLOCK_ROWS, INF, DistMatrix

# largest usable binary exponent per float width, matching published limits
EMAX = {32: 127.9, 64: 1024.0}

# c = -minexp // 2 per width: codes start at 2**-c, so products of two codes
# start at 2**-2c, the smallest normal number, and use the negative half of
# the exponent range too
_OFFSET = {32: 63, 64: 511}

# entries decode_values decodes per pass (128 KiB of int16 output)
_DECODE_CHUNK = 1 << 16

# unreachable in int16 distances, the solver's one format: a feasible solve
# holds no distance above 2 * 511, and the sentinel plus any stays below 2**15
UNREACHABLE16 = 2**14


class FeasibilityError(RuntimeError):
    """Encoding outside the proof: its product could overflow or misdecode."""


class DecodeError(RuntimeError):
    """Product matrix cannot be decoded back to distances."""


class NegativeEntryError(DecodeError):
    """Negative entry in a product matrix: the kernel corrupted the data."""


class NonFiniteEntryError(DecodeError):
    """Inf/NaN entry in a product matrix: the exponent range overflowed."""


def base_for(n: int) -> int:
    """The encoding base at node count n: the power of two above 2n."""
    return 2 ** (n.bit_length() + 1)


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
        """Binary exponent that every product entry stays below: a sum below
        base times its largest term, 2**(k * 2 * x_tilde - 2c), base = 2**k."""
        return (2 * self.x_tilde + 1) * math.log2(self.base) - 2 * _OFFSET[self.width]

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(f"float{self.width}")

    def is_feasible(self) -> bool:
        """True when a product of codes stored, multiplied and summed in
        dtype decodes exactly, whatever the summation order, at every node
        count n < base / 2.

        Three conditions. The base is a power of two 2**k, so codes and their
        products are exact powers of two, normal by the choice of c. The
        base times eps is at most 2: with positive terms, a computed n-term
        sum whose largest term is 2**E is at least 2**E and at most
        (1 + gamma_(n-1)) * n * 2**E, gamma_m = m*u / (1 - m*u), u = eps/2
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and
        gamma_(n-1) < 1 for n < base / 2, so the sum stays below 2n * 2**E
        <= 2**(E + k) and its exponent tells E. And (2*x_tilde + 1) * k is at
        most maxexp + 2c (254 for float32, 2046 for float64), so the largest
        sum stays finite. The rounding condition holds for n < 2**23 in
        float32 and n < 2**52 in float64.
        """
        info = np.finfo(self.dtype)
        exact = self.base & (self.base - 1) == 0 and self.base * info.eps <= 2
        return exact and self.exponent_budget() <= info.maxexp


@dataclass(frozen=True)
class EncodedMatrix:
    """Exponential image of a DistMatrix; 0 marks unreachable pairs."""

    data: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]


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
    return EncodeParams(base=base_for(m.n), x_tilde=max_finite(m), width=width)


def max_finite(m: DistMatrix) -> int:
    """Largest finite entry; 0 when all off-diagonal entries are unreachable.
    Reduced in blocks of BLOCK_ROWS rows, so no n x n mask is built."""
    blocks = (m.data[i : i + BLOCK_ROWS] for i in range(0, m.n, BLOCK_ROWS))
    return int(max((np.amax(b, initial=0.0, where=np.isfinite(b)) for b in blocks), default=0))


def largest_float32_x_tilde(n: int) -> int | None:
    """Largest x_tilde whose products run in float32 at node count n; None
    when n is above the float32 rounding bound."""
    if not EncodeParams(base=base_for(n), x_tilde=0, width=32).is_feasible():
        return None
    return math.floor(precision_limits(n, 32).safe_limit)


def encode_table(p: EncodeParams) -> np.ndarray:
    """The code of every distance a in 0..x_tilde, 2**(k*(x_tilde - a) - c)
    at index a, and 0 for unreachable at index x_tilde + 1, as p.dtype.

    Every encoder takes its table from here, so this is the one place that
    refuses a p that is_feasible does not prove: no product of encoded
    values can overflow or decode wrongly.
    """
    if not p.is_feasible():
        maxexp = np.finfo(p.dtype).maxexp
        bits = p.exponent_budget()
        if p.base & (p.base - 1):
            why = f"base {p.base} is not a power of two"
        elif bits > maxexp:
            why = f"needs exponents up to {bits:.0f}, above the {p.width}-bit limit {maxexp}"
        else:
            why = f"at base {p.base}: {p.width}-bit rounding may carry a sum past the next power"
        raise FeasibilityError(f"x_tilde={p.x_tilde} {why}")
    k = p.base.bit_length() - 1
    table = np.zeros(p.x_tilde + 2, p.dtype)
    table[:-1] = np.ldexp(1.0, k * np.arange(p.x_tilde, -1, -1) - _OFFSET[p.width])
    return table


def to_int16(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the float64 distances a into the int16 array out, inf as
    UNREACHABLE16; refuse a finite entry that would reach the sentinel."""
    np.minimum(a, UNREACHABLE16, out=out, casting="unsafe")
    # entries are nonnegative integers or inf, so only inf may reach the
    # sentinel when every finite entry lies below it
    if np.count_nonzero(out == UNREACHABLE16) != np.count_nonzero(a == INF):
        top = int(a[a < INF].max())
        raise FeasibilityError(f"x_tilde={top} is not below the int16 sentinel {UNREACHABLE16}")
    return out


def gather_codes(table: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Codes of int16 distances d, of any shape, from an encode_table table:
    UNREACHABLE16 clips to its last slot, the code 0 of unreachable. Mode
    "clip" also spares take the buffered copy of out that "raise" makes."""
    return np.take(table, d, out=out, mode="clip")


def gather_code_rows(table: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Codes of the n x n int16 distances d as a new matrix, gathered
    BLOCK_ROWS rows at a time: at n = 1600, int16 to float32, one take of
    the whole matrix took 7.1 ms and 64-row blocks 5.0 ms (2-vCPU Xeon)."""
    out = np.empty(d.shape, table.dtype)
    for i in range(0, len(d), BLOCK_ROWS):
        gather_codes(table, d[i : i + BLOCK_ROWS], out=out[i : i + BLOCK_ROWS])
    return out


def from_int16(d: np.ndarray) -> DistMatrix:
    """The int16 distances d as a new float64 DistMatrix, UNREACHABLE16 as
    inf: each block of rows is cast, and its sentinel masked while in cache.
    A block whose int16 maximum is below the sentinel skips the float64
    mask, which at n = 1600 took 3.86 ms with every block masked against
    2.76 ms with none (2-vCPU Xeon)."""
    out = np.empty(d.shape)
    for i in range(0, len(d), BLOCK_ROWS):
        rows = d[i : i + BLOCK_ROWS]
        b = out[i : i + BLOCK_ROWS]
        np.copyto(b, rows)
        if rows.max() >= UNREACHABLE16:
            b[b == UNREACHABLE16] = INF
    return DistMatrix._trusted(out)


def encode(m: DistMatrix, p: EncodeParams) -> EncodedMatrix:
    """Map finite entry a to 2**(k*(x_tilde - a) - c), unreachable to 0, as
    p.dtype, by to_int16 and gather_code_rows, as a dense epoch does.
    Refuses a base other than base_for(m.n), then, before any n x n
    allocation, a p that is_feasible does not prove, then an x_tilde below
    the largest finite entry."""
    if p.base != base_for(m.n):
        raise ValueError(f"base {p.base} does not match base_for({m.n}) = {base_for(m.n)}")
    table = encode_table(p)
    if max_finite(m) > p.x_tilde:
        raise ValueError("x_tilde is smaller than the largest finite entry")
    d = to_int16(m.data, np.empty(m.data.shape, np.int16))
    return EncodedMatrix(gather_code_rows(table, d))


def decode_values(arr: np.ndarray, p: EncodeParams, out: np.ndarray | None = None) -> np.ndarray:
    """Distances of bare product entries encoded with p, as int16.

    Each entry's biased exponent, one right shift of its bits, indexes a
    table of 2*x_tilde - (e + 2c) // k over every exponent e; 0 becomes
    UNREACHABLE16. arr must be of p.dtype, and p proven by is_feasible.
    out, when given, is a contiguous int16 array of arr's shape that shares
    no memory with arr; otherwise a new int16 array is returned.
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
            f"{p.dtype} product at base {p.base}, x_tilde={p.x_tilde}: "
            "is_feasible does not prove its decode exact"
        )
    info = np.finfo(p.dtype)
    # biased exponent b is e + maxexp - 1, and every normal e + 2c is >= 0;
    # b = 0 holds 0.0, the code of unreachable
    e = np.arange(2**info.nexp) - (info.maxexp - 1)
    k = p.base.bit_length() - 1
    if out is None:
        out = np.empty(arr.shape, np.int16)
    # exponents no feasible product reaches may wrap in int16; none is read
    table = (2 * p.x_tilde - (e + 2 * _OFFSET[p.width]) // k).astype(np.int16)
    table[0] = UNREACHABLE16
    # the bits as signed integers: the sign bit of -0.0 makes a negative
    # index, which clips to the unreachable slot like 0.0
    bits = arr.reshape(-1).view(f"int{p.width}")
    dst = out.reshape(-1)
    idx = np.empty(min(bits.size, _DECODE_CHUNK), bits.dtype)
    # chunks that fit the cache: the shift and the lookup read and write
    # each chunk once from memory
    for i in range(0, bits.size, _DECODE_CHUNK):
        chunk = bits[i : i + _DECODE_CHUNK]
        ix = np.right_shift(chunk, info.nmant, out=idx[: len(chunk)])
        np.take(table, ix, out=dst[i : i + _DECODE_CHUNK], mode="clip")
    return out


def decode(c_prime: EncodedMatrix, p: EncodeParams) -> DistMatrix:
    """Recover distances from a product of two encoded matrices by
    decode_values and from_int16.

    Entry v > 0 becomes 2*x_tilde - (e + 2c) // k, e the binary exponent of
    v; 0 becomes inf. The product is left unchanged.
    """
    return from_int16(decode_values(c_prime.data, p))


def precision_limits(n: int, width: int) -> PrecisionLimits:
    """Diameter limits imposed by the float exponent range at node count n.

    paper_limit is the paper's bound on base**D itself with Alon's base
    n + 1; safe_limit is the largest x_tilde, as a real number, that the
    exponent half of EncodeParams.is_feasible admits at base_for(n):
    (2*x_tilde + 1) * k <= maxexp + 2c.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if width not in EMAX:
        raise ValueError(f"width must be 32 or 64, got {width}")
    emax = EMAX[width]
    paper = emax / math.log2(n + 1)
    maxexp = np.finfo(f"float{width}").maxexp
    safe = ((maxexp + 2 * _OFFSET[width]) / (n.bit_length() + 1) - 1) / 2
    return PrecisionLimits(n=n, width=width, emax=emax, paper_limit=paper, safe_limit=safe)
