"""Divisor summatory function and hyperbola lattice counts, both O(sqrt x).

D(x) = sum_{n<=x} tau(n) equals the number of integer points (r, s) with
r, s >= 1 and r*s <= x: each n <= x contributes one point (r, n/r) per
divisor r.  Folding that count about the diagonal r = s gives

    D(x) = 2 * sum_{k <= sqrt(x)} floor(x/k) - floor(sqrt(x))^2,

because every point has min(r, s) <= sqrt(x), and the square block with
both coordinates <= sqrt(x) is the part counted twice.  floor_sum evaluates
the floor sum with numpy in chunks of at most CHUNK terms, in float64 for
x < 2^53 and in int64 otherwise.  The chunks grow geometrically from k = 1 so
that no chunk's sum can exceed 2^53 or 2^63 - 1; floor_sum's docstring
gives the proof.
divisor_summatory_tiles sums D over many x below TILE_X = (CHUNK + 1)^2 at
once, packing their short floor sums into float64 tiles of CHUNK entries.

lattice_count evaluates the unfolded floor sum sum_{r<=M} floor(M/r)
instead, batching the O(sqrt M) maximal ranges of r over which the
quotient floor(M/r) is constant.  The two routines are deliberately
independent implementations of the same quantity so they can
cross-validate each other.

Boundary convention: points on the hyperbola r*s = x are included,
points on either axis are not.

Domain: D(x) = sum_{k<=x} floor(x/k) <= x * H(x) <= x * (1 + ln x), and
MAX_X is the largest x for which that bound is at most 2^63 - 1.  Both
routines refuse a larger argument before their O(sqrt x) loop starts; at
x = 2^63 - 1 that loop would run about 3 * 10^9 steps before the result
check could fail.  _divisor_summatory and _lattice_count are the same
routines without that argument check, for the S(N) evaluators: they check
N once, and every floor(N / d^2) they pass on is then in the domain.
"""

import bisect
import math
import operator

import numpy as np

from .arith import MAX_NATURAL, check_natural

CHUNK = 2**14
MAX_X = 225_203_186_528_917_274
TILE_X = (CHUNK + 1) ** 2

# 1..CHUNK as doubles: the first float chunk and the tiles slice it instead of allocating
_FIRST_K = np.arange(1, CHUNK + 1, dtype=np.float64)
_FIRST_K.flags.writeable = False


def _check_domain(x: int, name: str) -> None:
    check_natural(x, name)
    if x > MAX_X:
        raise OverflowError(
            f"{name}={x} exceeds MAX_X = {MAX_X}, the largest x with "
            f"x * (1 + ln x) <= 2^63 - 1"
        )


def floor_sum(x: int, r: int) -> int:
    """Exact sum_{k=1..r} x // k for 0 <= x <= 2^63 - 1, as a Python int.

    Each chunk [lo, hi) of k has hi - lo <= min(CHUNK, lo * (B // x)).  For
    x < 2^53 it divides in float64 and floors, with B = 2^53; otherwise it
    floor-divides in int64, with B = MAX_NATURAL = 2^63 - 1.

    Float quotients: x < 2^53 and k are exact doubles, so x/k is correctly
    rounded, with an error of at most (x/k) * 2^-53 < 1/k.  A non-integer x/k
    lies at least 1/k below the next integer, so floor never rounds up, and
    an integer x/k is exact.

    Chunk sums: every term of [lo, hi) is at most x / lo, so the chunk's sum,
    and every partial sum of it, is an integer of at most
    (hi - lo) * x / lo <= (B // x) * x <= B.  That is exact in float64 for
    B = 2^53 and cannot wrap in int64 for B = 2^63 - 1.  Only the first few
    chunks are short.  The chunk sums are added up as Python ints.
    """
    use_float = x < 2**53
    per_lo = (2**53 if use_float else MAX_NATURAL) // max(x, 1)
    total, lo = 0, 1
    while lo <= r:
        hi = min(lo + min(CHUNK, lo * per_lo), r + 1)
        if use_float:
            k = _FIRST_K[: hi - lo] if lo == 1 else np.arange(lo, hi, dtype=np.float64)
            q = np.divide(float(x), k)
            np.floor(q, out=q)
        else:
            q = x // np.arange(lo, hi, dtype=np.int64)
        total += int(q.sum())
        lo = hi
    return total


def divisor_summatory_tiles(x: np.ndarray) -> int:
    """Exact sum of D(x_i) over a non-increasing int64 array of 1 <= x_i < TILE_X.

    D(x_i) = 2 * floor_sum(x_i, r_i) - r_i^2 with r_i = isqrt(x_i), and below
    TILE_X = (CHUNK + 1)^2 every r_i <= CHUNK, so many rows fit in one float64
    tile of at most CHUNK entries: a run of rows from row i, each more than
    half as wide as row i, times the columns k = 1..r_i.  x non-increasing
    makes r_i the widest row of its run, and the half-width rule keeps the
    padding that the narrower rows divide for nothing below half the tile.
    Each tile is divided and floored in place in one buffer, which this call
    allocates, so concurrent calls share nothing.  The tile is summed
    plainly, then its ragged masked tail is subtracted: the entries with
    k > r_j, all past the width of its last row.

    Exactness: x_i < 2^29, so float sqrt gives isqrt(x_i) exactly.  A square
    x_i has an exact root; any other x_i has sqrt(x_i) more than
    1/(2 (r_i + 1)) > 2^-16 below r_i + 1, far more than the rounding error of
    at most 2^-39.  Since x_i < 2^53, floor(x_i / k) is exact, as floor_sum
    shows.  Every entry is below 2^29 and a tile has at most 2^14 entries, so
    every partial sum in a tile is an integer below 2^43, exact in float64.
    The tile sums are added up as Python ints.
    """
    xf = x.astype(np.float64)
    r = np.sqrt(xf).astype(np.int64)
    widths = r.tolist()
    buf = np.empty(CHUNK)
    total = 0
    i, rows = 0, len(widths)
    while i < rows:
        w = widths[i]
        j = min(i + CHUNK // w, bisect.bisect_left(widths, -(w // 2), i, key=operator.neg))
        v = widths[j - 1]
        flat = buf[: (j - i) * w]
        q = flat.reshape(j - i, w)
        np.divide(xf[i:j, None], _FIRST_K[:w], out=q)
        np.floor(flat, out=flat)
        total += int(flat.sum())
        if v < w:
            total -= int(q[:, v:].sum(where=_FIRST_K[v:w] > r[i:j, None]))
        i = j
    return 2 * total - int(r @ r)


def divisor_summatory(x: int) -> int:
    """Exact D(x) = sum_{n<=x} tau(n) via the folded hyperbola identity."""
    _check_domain(x, "x")
    return _divisor_summatory(x)


def _divisor_summatory(x: int) -> int:
    r = math.isqrt(x)
    total = 2 * floor_sum(x, r) - r * r
    if total > MAX_NATURAL:
        raise OverflowError(f"divisor_summatory({x}) exceeds the 2^63 - 1 contract")
    return total


def lattice_count(m: int) -> int:
    """Count integer points (r, s) with r, s >= 1 and r*s <= m.

    Walks the distinct quotient values q = floor(m/r): every r in
    [r, m // q] contributes the same q points, so each block is settled
    with one multiplication.
    """
    _check_domain(m, "m")
    return _lattice_count(m)


def _lattice_count(m: int) -> int:
    total = 0
    r = 1
    while r <= m:
        q = m // r
        r_hi = m // q
        total += q * (r_hi - r + 1)
        r = r_hi + 1
    if total > MAX_NATURAL:
        raise OverflowError(f"lattice_count({m}) exceeds the 2^63 - 1 contract")
    return total
