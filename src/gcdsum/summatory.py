"""Divisor summatory function and hyperbola lattice counts, both O(sqrt x).

D(x) = sum_{n<=x} tau(n) equals the number of integer points (r, s) with
r, s >= 1 and r*s <= x: each n <= x contributes one point (r, n/r) per
divisor r.  Folding that count about the diagonal r = s gives

    D(x) = 2 * sum_{k <= sqrt(x)} floor(x/k) - floor(sqrt(x))^2,

because every point has min(r, s) <= sqrt(x), and the square block with
both coordinates <= sqrt(x) is the part counted twice.  floor_sum evaluates
that floor sum for a whole non-increasing batch of rows x_i at once, in
chunks of at most CHUNK values of k, each quotient floor(x_i / k) by one of
three exact routes:

    x_i < RECIP_X          multiply x_i by a reciprocal r_k that is rounded
                           up a little, and floor, in float64; one chunk of
                           r_k serves every row that reaches it
    RECIP_X <= x_i < 2^53  divide in float64 and floor
    2^53 <= x_i            floor-divide in int64

RECIP_X = 818836295885544, about 2^50 / 1.375, is derived from the proof in
floor_sum's docstring.  In the first chunk each row sums pieces that grow
geometrically from k = 1, so that no piece's sum can exceed 2^53 or
2^63 - 1.  divisor_summatory_batch turns the floor sums into the sum of
D(x_i), and divisor_summatory(x) is its one-row case.
divisor_summatory_tiles sums D over many x below TILE_X = (CHUNK + 1)^2 at
once, packing their short floor sums into float64 tiles of CHUNK entries
that multiply by one table of r_1, ..., r_CHUNK.

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
check could fail.  divisor_summatory_batch and _lattice_count take their
arguments without that check, for the S(N) evaluators: they check N once,
and every floor(N / d^2) they pass on is then in the domain.
"""

import bisect
import math
import operator
from collections.abc import Sequence

import numpy as np

from .arith import MAX_NATURAL, check_natural

CHUNK = 2**14
MAX_X = 225_203_186_528_917_274
TILE_X = (CHUNK + 1) ** 2
# The largest X with X * e < 1, where e = (1 + 2^-53)^3 (1 + 2^-50) - 1 is the
# relative excess of a reciprocal product; floor_sum's docstring gives the proof.
RECIP_X = (2**209 - 1) // ((2**53 + 1) ** 3 * (2**50 + 1) - 2**209)


def _reciprocals(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """r_k = fl(fl(1/k) * (1 + 2^-50)) for a float64 array of k >= 1."""
    recip = np.divide(1.0, k, out=out)
    recip *= 1 + 2**-50
    return recip


# r_1, ..., r_CHUNK, built in place: the tiles and the first chunk of floor_sum read it
_RECIP = np.arange(1, CHUNK + 1, dtype=np.float64)
_reciprocals(_RECIP, out=_RECIP)
_RECIP.flags.writeable = False


def _check_domain(x: int, name: str) -> None:
    check_natural(x, name)
    if x > MAX_X:
        raise OverflowError(
            f"{name}={x} exceeds MAX_X = {MAX_X}, the largest x with "
            f"x * (1 + ln x) <= 2^63 - 1"
        )


def floor_sum(x: Sequence[int], r: Sequence[int]) -> list[int]:
    """Exact sum_{k=1..r_i} x_i // k for every row of a batch, as Python ints.

    x and r are non-increasing, with 0 <= x_i <= 2^63 - 1.  The loop runs
    over chunks [lo, lo + CHUNK) of k on the outside, lo = 1, CHUNK + 1, ...,
    and over the rows that reach each chunk on the inside; those rows, the
    ones with r_i >= lo, are a prefix of the batch.  Row i sums a chunk in
    pieces [a, b) with b - a <= a * (B // x_i): B = 2^53 for a row summed in
    float64 (x_i < 2^53) and B = MAX_NATURAL = 2^63 - 1 for a row summed in
    int64.  Every piece past the first chunk is a whole chunk; in the first,
    the pieces grow geometrically from k = 1.  Each row takes one of three
    routes:

    Reciprocal products, x_i < RECIP_X: floor(fl(x_i * r_k)).  With
    u = 2^-53, fl(1/k) >= (1/k)(1 - u), so
    r_k >= (1/k)(1 - u)^2 (1 + 2^-50) >= (1/k)(1 + 2^-51) > 1/k.  Hence
    x_i * r_k >= x_i / k >= m = floor(x_i / k), and since m is a double
    and rounding is monotone, the product never rounds below m.  Above, the
    three roundings (of 1/k, of the bump and of the product) give
    fl(x_i * r_k) <= (x_i / k)(1 + e) with e = (1 + u)^3 (1 + 2^-50) - 1,
    about 1.375 * 2^-50.  A non-integer x_i / k lies at least 1/k below
    m + 1, and (x_i / k) e < 1/k because x_i e < 1 for x_i < RECIP_X, so
    the product stays below m + 1, and for an integer x_i / k = m below
    m + 1 too.  A chunk of r_k is built once and multiplied into every
    such row that reaches the chunk; the first chunk reads the table of
    the tiles.  A chunk reached by only one of these rows divides instead,
    since building its reciprocals would cost more than it saves.

    Float quotients, x_i < 2^53: floor(fl(x_i / k)).  x_i and k are exact
    doubles, so x_i / k is correctly rounded, with an error of at most
    (x_i / k) * 2^-53 < 1/k.  A non-integer x_i / k lies at least 1/k below
    the next integer, so floor never rounds up, and an integer x_i / k is
    exact.

    Int64 quotients, x_i >= 2^53: x_i // k, exact.

    Piece sums: every term of row i in [a, b) is at most x_i / a, so the
    piece's sum, and every partial sum of it, is an integer of at most
    (b - a) * x_i / a <= (B // x_i) * x_i <= B.  That is exact in float64
    for B = 2^53 and cannot wrap in int64 for B = 2^63 - 1.  The piece sums
    are added up as Python ints.
    """
    sums = [0] * len(x)
    if not x:
        return sums
    per_a = [(2**53 if v < 2**53 else MAX_NATURAL) // max(v, 1) for v in x]
    # rows [0, ints) take the int64 route and rows [ints, divs) the float divide
    ints = bisect.bisect_right(x, -(2**53), key=operator.neg)
    divs = bisect.bisect_right(x, -RECIP_X, key=operator.neg)
    k = np.arange(1, min(r[0], CHUNK) + 1, dtype=np.float64)
    buf = np.empty(min(r[0], CHUNK))
    for lo in range(1, r[0] + 1, CHUNK):
        if lo > 1:
            k += CHUNK
        live = bisect.bisect_right(r, -lo, key=operator.neg)
        # rows [muls, live) multiply by one shared chunk of reciprocals
        muls = divs if live - divs > 1 else live
        if muls < live:
            recip = _RECIP if lo == 1 else _reciprocals(k)
        for i in range(live):
            v, a, end = x[i], lo, min(lo + CHUNK, r[i] + 1)
            while a < end:
                b = min(a + a * per_a[i], end)
                if i < ints:
                    sums[i] += int((v // np.arange(a, b, dtype=np.int64)).sum())
                else:
                    q = buf[: b - a]
                    if i < muls:
                        np.divide(float(v), k[a - lo : b - lo], out=q)
                    else:
                        np.multiply(recip[a - lo : b - lo], float(v), out=q)
                    np.floor(q, out=q)
                    sums[i] += int(q.sum())
                a = b
    return sums


def divisor_summatory_batch(x: Sequence[int]) -> int:
    """Exact sum of D(x_i) over a non-increasing batch of 0 <= x_i <= MAX_X.

    One floor_sum over the batch; the arguments are not checked.
    """
    r = [math.isqrt(v) for v in x]
    total = 0
    for v, root, f in zip(x, r, floor_sum(x, r)):
        d = 2 * f - root * root
        if d > MAX_NATURAL:
            raise OverflowError(f"divisor_summatory({v}) exceeds the 2^63 - 1 contract")
        total += d
    return total


def divisor_summatory_tiles(x: np.ndarray) -> int:
    """Exact sum of D(x_i) over a non-increasing int64 array of 1 <= x_i < TILE_X.

    D(x_i) = 2 * floor_sum(x_i, r_i) - r_i^2 with r_i = isqrt(x_i), and below
    TILE_X = (CHUNK + 1)^2 every r_i <= CHUNK, so many rows fit in one float64
    tile of at most CHUNK entries: a run of rows from row i, each more than
    half as wide as row i, times the columns k = 1..r_i.  x non-increasing
    makes r_i the widest row of its run, and the half-width rule keeps the
    padding that the narrower rows compute for nothing below half the tile.
    Each tile is multiplied by the reciprocals r_k and floored in place in
    one buffer, which this call allocates, so concurrent calls share
    nothing.  The tile is summed plainly, then its ragged masked tail is
    subtracted: the entries with k > r_j, all past the width of its last
    row.

    Exactness: x_i < 2^29, so float sqrt gives isqrt(x_i) exactly.  A square
    x_i has an exact root; any other x_i has sqrt(x_i) more than
    1/(2 (r_i + 1)) > 2^-16 below r_i + 1, far more than the rounding error of
    at most 2^-39.  Since x_i < RECIP_X, floor(fl(x_i * r_k)) = x_i // k, as
    floor_sum shows.  Every entry is below 2^29 and a tile has at most 2^14
    entries, so every partial sum in a tile is an integer below 2^43, exact
    in float64.  The tile sums are added up as Python ints.
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
        np.multiply(xf[i:j, None], _RECIP[:w], out=q)
        np.floor(flat, out=flat)
        total += int(flat.sum())
        if v < w:
            total -= int(q[:, v:].sum(where=np.arange(v + 1, w + 1) > r[i:j, None]))
        i = j
    return 2 * total - int(r @ r)


def divisor_summatory(x: int) -> int:
    """Exact D(x) = sum_{n<=x} tau(n) via the folded hyperbola identity."""
    _check_domain(x, "x")
    return divisor_summatory_batch([x])


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
