"""Divisor summatory function and hyperbola lattice counts, both O(sqrt x).

D(x) = sum_{n<=x} tau(n) equals the number of integer points (r, s) with
r, s >= 1 and r*s <= x: each n <= x contributes one point (r, n/r) per
divisor r.  Folding that count about the diagonal r = s gives

    D(x) = 2 * sum_{k <= sqrt(x)} floor(x/k) - floor(sqrt(x))^2,

because every point has min(r, s) <= sqrt(x), and the square block with
both coordinates <= sqrt(x) is the part counted twice.
divisor_summatory_batch sums D over a whole non-increasing batch of x at
once, and divisor_summatory(x) is its one-row case.  Its floor sums run in
whole chunks of CHUNK values of k, and take each quotient floor(x_i / k)
by one of three exact routes:

    x_i < RECIP_X          multiply x_i by a reciprocal r_k that is rounded
                           up a little, and floor, in float64
    RECIP_X <= x_i < 2^53  divide in float64 and floor
    2^53 <= x_i            floor-divide in int64

RECIP_X = 818836295885544, about 2^50 / 1.375, is derived from the proof in
floor_sum's docstring.  The rows below RECIP_X sum their first chunk in
float64 tiles, many short rows or one long row at a time, against one
table of r_1, ..., r_CHUNK.  A tile of several rows is as wide as its
narrowest row, and the rest of its wider rows goes to one ragged pass per
call.  Each later chunk of r_k is built once and serves every such row
that reaches it.  The other rows, at most 16 of the floor(N / d^2) for
any N <= MAX_X, floor-divide their first chunk in int64, where it sums to
less than MAX_X * H(CHUNK) < 2^62, and take their later chunks by their
own route.

lattice_count evaluates the unfolded floor sum sum_{r<=M} floor(M/r)
instead, batching the O(sqrt M) maximal ranges of r over which the
quotient floor(M/r) is constant.  The two routines are deliberately
independent implementations of the same quantity so they can
cross-validate each other.

Boundary convention: points on the hyperbola r*s = x are included,
points on either axis are not.

Domain: D(x) = sum_{k<=x} floor(x/k) <= x * H(x) <= x * (1 + ln x), and
MAX_X is the largest x for which that bound is at most 2^63 - 1.  Both
routines refuse a larger argument before their O(sqrt x) loop starts, so
every result fits int64 and is not checked again, and MAX_X is the only
bound the kernel's chunks are sized for.  divisor_summatory_batch and
_lattice_count take their arguments without that check, for the S(N)
evaluators: they check N once, and every floor(N / d^2) they pass on is
then in the domain.
"""

import bisect
import operator

import numpy as np

from .arith import check_natural

CHUNK = 2**14
MAX_X = 225_203_186_528_917_274
# The largest X with X * e < 1, where e = (1 + 2^-53)^3 (1 + 2^-50) - 1 is the
# relative excess of a reciprocal product; floor_sum's docstring gives the proof.
RECIP_X = (2**209 - 1) // ((2**53 + 1) ** 3 * (2**50 + 1) - 2**209)


def _reciprocals(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """r_k = fl(fl(1/k) * (1 + 2^-50)) for a float64 array of k >= 1."""
    recip = np.divide(1.0, k, out=out)
    recip *= 1 + 2**-50
    return recip


# r_1, ..., r_CHUNK, built in place: the tiles of floor_sum's first chunk read it
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


def _isqrt(q: np.ndarray) -> np.ndarray:
    """math.isqrt of every entry of an int64 array with entries in [0, MAX_X].

    np.sqrt rounds q to a double, then takes the correctly rounded root s.
    s is never below k = isqrt(q): q >= k^2 rounds to at least
    k^2 (1 - 2^-53), whose root lies within half a double spacing below k,
    so it rounds to k or above.  s is below k + 2: both roundings move
    sqrt(q) < 2^29 by less than 2^-23.  So the truncated s needs only one
    downward correction, and its square is at most (isqrt(MAX_X) + 1)^2,
    far below 2^63.
    """
    s = np.sqrt(q).astype(np.int64)
    s -= s * s > q
    return s


def floor_sum(x: np.ndarray, r: np.ndarray) -> int:
    """Exact sum over the rows of sum_{k=1..r_i} x_i // k, as a Python int.

    x and r are non-increasing int64 arrays, with 0 <= x_i <= MAX_X and
    r_i >= 0.  The chunks of k are [lo, lo + CHUNK), lo = 1, CHUNK + 1, ...,
    and every row sums every chunk it reaches whole.

    First chunk of the rows at or above RECIP_X: x_i // k in int64, one row
    at a time.

    First chunk of the rows below RECIP_X: float64 tiles.  A tile is a run
    of rows from row i, at most CHUNK // w of them for w = min(r_i, CHUNK),
    each more than half as wide as row i; it is a single row unless
    x_i < (w + 1)^2, as for r_i = isqrt(x_i).  A tile of several rows is as
    wide as its last, narrowest row instead.  Its rows times the columns
    k = 1..w are multiplied by the table of r_1, ..., r_CHUNK, floored in
    place in one buffer, which this call allocates, so concurrent calls
    share nothing, and summed.  The rest of its wider rows, w < k <= r_j,
    goes to one ragged pass after the tiles, which gathers r_k from the
    table, multiplies by x_j, floors and sums, in pieces of whole rows of
    at most half the buffer; NumPy has no repeat into a given array, so a
    piece's index and x arrays are allocated.  NumPy copies the broadcast
    operand of a tile of three or more rows through its buffer when the
    rows are shorter than about 3000 entries, at 1.7 ns per entry against
    0.5 ns unbuffered (NumPy 2.4; two rows run unbuffered), so the first
    such tile sets np.setbufsize(16), and a finally clause restores the
    caller's size on every exit.  The size is per thread and never changes
    a product.

    Later chunks: the loop runs over the chunks on the outside and over the
    rows that reach each chunk on the inside; those rows, the ones with
    r_i >= lo, are a prefix of the batch.  A chunk reached by two or more
    rows below RECIP_X builds its reciprocals once and multiplies them into
    each of those rows; one reached by only one such row divides, since
    building its reciprocals would cost more than it saves.  Each row takes
    one of three routes:

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
    m + 1 too.

    Float quotients, x_i < 2^53: floor(fl(x_i / k)).  x_i and k are exact
    doubles, so x_i / k is correctly rounded, with an error of at most
    (x_i / k) * 2^-53 < 1/k.  A non-integer x_i / k lies at least 1/k below
    the next integer, so floor never rounds up, and an integer x_i / k is
    exact.

    Int64 quotients, x_i >= 2^53, and the first chunk of every row at or
    above RECIP_X: x_i // k, exact.

    Sums: every partial sum of a tile or a chunk is an integer no larger
    than its whole sum.  A first chunk sums to at most x_i * H(CHUNK),
    H(CHUNK) < 10.3: below RECIP_X * 10.3 < 2^53 for a one-row tile, and
    below MAX_X * 10.3 < 2^62 in int64.  A tile of several rows has
    w <= CHUNK / 2 and every x_j <= x_i < (w + 1)^2 <= 2^26.01, so its at
    most CHUNK entries sum to less than 2^41, and so does a piece of the
    ragged pass, whose rows are rows of such tiles.  A later chunk
    [lo, lo + CHUNK) has at most CHUNK terms, each at most x_i / lo with
    lo > CHUNK, so it sums to less than x_i: below 2^53 on the float routes
    and below 2^63 on the int64 one.  So every float64 sum is exact and no
    int64 sum can wrap.  Tile and chunk sums are added up as Python ints.
    """
    xs, rs = x.tolist(), r.tolist()
    if not rs or not rs[0]:
        return 0
    # rows [0, ints) take the int64 route, rows [ints, divs) the float divide
    # and rows [divs, stop), those below RECIP_X with r_i >= 1, the reciprocals
    ints = bisect.bisect_right(xs, -(2**53), key=operator.neg)
    divs = bisect.bisect_right(xs, -RECIP_X, key=operator.neg)
    stop = bisect.bisect_right(rs, -1, key=operator.neg)
    # the first chunk of the rows at or above RECIP_X, whole, in int64
    total = sum(int((v // np.arange(1, min(w, CHUNK) + 1, dtype=np.int64)).sum())
                for v, w in zip(xs[:divs], rs))
    xf = x.astype(np.float64)
    buf = np.empty(min(CHUNK, stop * rs[0]))
    # per tile its row count and its cut: the tile sums each row j over
    # k <= cut and the ragged pass over cut < k <= r_j; and the caller's
    # buffer size once a tile of three or more rows set 16
    runs, cuts, bufsize, ragged = [], [], None, False
    i = divs
    try:
        while i < stop:
            cut, w = rs[i], min(rs[i], CHUNK)
            j = i + 1
            if xs[i] < (w + 1) ** 2:
                j = min(i + CHUNK // w, bisect.bisect_left(rs, -(w // 2), i, key=operator.neg))
                if bufsize is None and j - i > 2:
                    bufsize = np.setbufsize(16)
                if w > rs[j - 1]:
                    w = cut = rs[j - 1]
                    ragged = True
            runs.append(j - i)
            cuts.append(cut)
            flat = buf[: (j - i) * w]
            np.multiply(xf[i:j, None], _RECIP[:w], out=flat.reshape(j - i, w))
            np.floor(flat, out=flat)
            total += int(flat.sum())
            i = j
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    if ragged:
        # the n_j entries cut < k <= r_j of each row j, in pieces of whole rows;
        # entry t of the pass has k - 1 = t + shift_j, always inside the table,
        # so take wraps instead of checking every index
        cut = np.array(cuts).repeat(runs)
        n = r[divs:stop] - cut
        ends = n.cumsum()
        shift = cut + n - ends
        a, i, end = 0, 0, int(ends[-1])
        while a < end:
            j = int(ends.searchsorted(a + len(buf) // 2, "right"))
            b = int(ends[j - 1])
            k = shift[i:j].repeat(n[i:j])
            k += np.arange(a, b)
            q = buf[: b - a]
            _RECIP.take(k, out=q, mode="wrap")
            q *= xf[divs + i : divs + j].repeat(n[i:j])
            np.floor(q, out=q)
            total += int(q.sum())
            a, i = b, j
    k = np.arange(CHUNK + 1, min(2 * CHUNK, rs[0]) + 1, dtype=np.float64)
    recip = None
    for lo in range(CHUNK + 1, rs[0] + 1, CHUNK):
        live = bisect.bisect_right(rs, -lo, key=operator.neg)
        # rows [muls, live) multiply by one shared chunk of reciprocals
        muls = divs if live - divs > 1 else live
        if muls < live:
            recip = _reciprocals(k, out=recip)
        for i in range(live):
            v, n = xs[i], min(CHUNK, rs[i] + 1 - lo)
            if i < ints:
                total += int((v // np.arange(lo, lo + n, dtype=np.int64)).sum())
            else:
                q = buf[:n]
                if i < muls:
                    np.divide(float(v), k[:n], out=q)
                else:
                    np.multiply(recip[:n], float(v), out=q)
                np.floor(q, out=q)
                total += int(q.sum())
        k += CHUNK
    return total


def divisor_summatory_batch(x: np.ndarray) -> int:
    """Exact sum of D(x_i) over a non-increasing int64 array of 0 <= x_i <= MAX_X.

    One floor_sum over the batch with r_i = isqrt(x_i).  The arguments are
    not checked, and their sum must be at most 2^63 - 1, so that the sum of
    the r_i^2 fits int64; the floor(N / d^2) of any N <= MAX_X sum to at
    most N * zeta(2) < 2^59.
    """
    r = _isqrt(x)
    return 2 * floor_sum(x, r) - int(r @ r)


def divisor_summatory(x: int) -> int:
    """Exact D(x) = sum_{n<=x} tau(n) via the folded hyperbola identity."""
    _check_domain(x, "x")
    return divisor_summatory_batch(np.array([x], dtype=np.int64))


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
    return total
