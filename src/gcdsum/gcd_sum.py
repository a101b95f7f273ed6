"""Three independent exact evaluators for S(N) = sum_{a*b <= N} tau(gcd(a, b)).

brute     evaluates the defining double sum, one gcd per ordered pair.
          Any common divisor d of a valid pair satisfies d^2 <= a*b <= N,
          so gcd(a, b) <= sqrt(N) and tau is memoized in a divisor table
          of only isqrt(N) entries.  O(N log N) element operations.

lemma1    classifies pairs by their common divisors: tau(gcd(a, b)) is the
          number of d dividing both a and b, and for a fixed d <= sqrt(N)
          the pairs (a, b) = (r*d, s*d) with a*b <= N are exactly the
          lattice points r*s <= N/d^2.  Swapping the summation order:

              S(N) = sum_{d <= sqrt(N)} lattice_count(floor(N / d^2)).

identity  folds the same inner count into the divisor summatory function,

              S(N) = sum_{d <= sqrt(N)} D(floor(N / d^2)),

          the production evaluator.  It splits the d at one table limit
          per process, L = min(TABLE_CAP, sieve cap): with
          d0 = isqrt(N // (L + 1)) + 1, every d >= d0 has
          floor(N / d^2) <= L.  The d fall into three ranges:

          d < ds        one divisor_summatory_batch call for all of them;
                        these x = floor(N / d^2) are at least
                        TILE_X = (CHUNK + 1)^2, and ds = isqrt(N // TILE_X) + 1.
          ds <= d < d0  the short rows, with isqrt(x) <= CHUNK: summed many
                        rows at a time in float64 tiles by
                        divisor_summatory_tiles.
          d >= d0       the table half, read from one divisor table of L
                        entries.  prefix[N // d^2] is gathered with numpy
                        for d < d1 = (2N)^(1/3), clamped to [d0, sqrt(N) + 1];
                        the d >= d1 are folded by the hyperbola method on
                        the d-axis into a sum over m <= N // d1^2 of tau(m)
                        times the number of d >= d1 with d^2 m <= N.

          While the table half has at most CHUNK terms (at the default cap,
          N below about 2.7 * 10^8) the tiles and the fold do not pay, so
          every d < d0 goes to divisor_summatory_batch and the table half is
          one gather; for N <= L, d0 = 1 and S(N) is that gather alone.  The
          table is built on the first call for each L and kept for the life
          of the process, so a lowered sieve cap picks its own table; every
          later call only reads it.  A call costs about sqrt(N) log(d0) exact
          floor quotients, in one batch of ds - 1 rows and about
          sqrt(N) log(d0 / ds) / CHUNK tiles, plus fewer than 2 N^(1/3) table
          reads in place of sqrt(N).  The batch runs over sqrt(N) / CHUNK
          chunks of k and builds one chunk of reciprocals for each chunk after
          the first that two of its rows below RECIP_X reach.  At N = 10^12
          that is one batch of 61 rows in 62 chunks, 30 of them with
          reciprocals built, 269 tiles and about 16000 table reads.  Any
          L >= 1 and any d1 in [d0, sqrt(N) + 1] give the same integer; they
          only move the cost between the ranges.

All three agree exactly wherever they are all defined; the test suite
leans hard on that three-way agreement.

s_upto is the oracle that `gcdsum verify` checks lemma1 and identity
against.  It shares no hyperbola or divisor-table code with them: the
summand f(n) = sum_{a*b = n} tau(gcd(a, b)) is multiplicative, so one
prime sieve gives f(1..m) and a running sum gives S(0..m).
"""

import enum
import functools
import math
import threading

import numpy as np

from .arith import check_natural, check_sieve_limit, sieve_cap, sieve_tau
from .summatory import CHUNK, TILE_X, _check_domain

# lemma1 and identity check N once and then call the unchecked kernels.  They
# are bound under the public names, so a wrapper on this module sees each call.
# divisor_summatory is bound for perfbench/tracer.py, which wraps it by name.
from .summatory import _lattice_count as lattice_count
from .summatory import divisor_summatory, divisor_summatory_batch, divisor_summatory_tiles

DEFAULT_BRUTE_CAP = 10**7
TABLE_CAP = 2**17


class Algorithm(enum.Enum):
    """Selects one of the three S(N) evaluators."""

    BRUTE = "brute"
    LEMMA1_LATTICE = "lemma1"
    IDENTITY_SUMMATORY = "identity"


def _check_positive(n: int) -> int:
    check_natural(n)
    if n == 0:
        raise ValueError("S(N) requires N >= 1")
    return n


def _check_summable(n: int) -> None:
    """1 <= N <= MAX_X, so that every floor(N / d^2) is in the kernels' domain."""
    _check_positive(n)
    _check_domain(n, "N")


def s_brute(n: int) -> int:
    """S(N) straight from the definition: one gcd evaluation per pair.

    Every pair with a*b <= n has min(a, b) <= isqrt(n), so summing the
    rows a <= isqrt(n) twice and subtracting the doubly counted square
    block (both coordinates <= isqrt(n)) visits each ordered pair exactly
    once.  Rows run as vectorized gcd + divisor-table gathers.
    """
    _check_positive(n)
    if n > DEFAULT_BRUTE_CAP:
        raise ValueError(f"N={n} exceeds the brute-force cap of {DEFAULT_BRUTE_CAP}")
    r = math.isqrt(n)
    taus = sieve_tau(r)
    total = 0
    for a in range(1, r + 1):
        row = np.arange(1, n // a + 1, dtype=np.int64)
        total += 2 * int(taus[np.gcd(a, row)].sum())
    block = np.arange(1, r + 1, dtype=np.int64)
    total -= int(taus[np.gcd.outer(block, block)].sum())
    return total


def s_lemma1(n: int) -> int:
    """S(N) as a sum of hyperbola lattice counts, one per d <= sqrt(N)."""
    _check_summable(n)
    return sum(lattice_count(n // (d * d)) for d in range(1, math.isqrt(n) + 1))


_TABLE_LOCK = threading.Lock()


def _table_prefix(limit: int) -> np.ndarray:
    """The read-only prefix sums of tau up to limit, built once per limit.

    The lock makes threads that start on a cold cache wait for one build
    instead of each building its own.
    """
    with _TABLE_LOCK:
        return _build_table_prefix(limit)


@functools.lru_cache(maxsize=4)
def _build_table_prefix(limit: int) -> np.ndarray:
    """Running sums of sieve_tau(limit); call it through _table_prefix.

    sieve_tau is looked up as a module global at call time, so a wrapper
    bound on this module sees the build; the tau array is dropped.
    """
    prefix = np.cumsum(sieve_tau(limit))
    prefix.flags.writeable = False
    return prefix


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


def _folded_tail(prefix: np.ndarray, n: int, d1: int) -> int:
    """sum_{d1 <= d <= isqrt(N)} prefix[N // d^2], counted along the other axis.

    Each term is D(N // d^2), the number of pairs (d, m) with d^2 m <= N and
    one weight tau(m) per pair.  For a fixed m <= N // d1^2 the d run from d1
    to isqrt(N // m), so the sum is sum_m tau(m) (isqrt(N // m) - d1 + 1):
    Dirichlet's hyperbola method on the d-axis.  It needs d0 <= d1 <= isqrt(N)
    + 1; d1 >= d0 keeps every m inside the table, and the int64 sum is at most
    isqrt(N) * D(L) < 2^63.
    """
    m = n // (d1 * d1)
    tau = np.diff(prefix[: m + 1])
    return int((tau * (_isqrt(n // np.arange(1, m + 1, dtype=np.int64)) - (d1 - 1))).sum())


def s_identity(n: int) -> int:
    """S(N) as a sum of divisor summatory values; the production path.

    The d < d0 have floor(N / d^2) above L = min(TABLE_CAP, sieve cap) and
    evaluate D; the d >= d0 read it from the table's prefix sums.  While the
    table half fits one CHUNK, every large term goes to one
    divisor_summatory_batch call and the table half is one gather.  Past
    that, the batch takes only the d < ds, whose floor(N / d^2) >= TILE_X;
    the d in [ds, d0) go to divisor_summatory_tiles, and the table half is
    gathered for d < d1 and folded for d >= d1.
    """
    _check_summable(n)
    limit = min(TABLE_CAP, sieve_cap())
    prefix = _table_prefix(limit)
    d0 = math.isqrt(n // (limit + 1)) + 1
    end = math.isqrt(n) + 1
    if end - d0 <= CHUNK:
        # too few terms for the tiles and the fold to pay: every large term
        # goes to the batch and the table half is one gather, as for N <= L
        large = divisor_summatory_batch([n // (k * k) for k in range(1, d0)])
        d = np.arange(d0, end, dtype=np.int64)
        return large + int(prefix[n // (d * d)].sum())
    # L < TILE_X, so ds <= d0
    ds = math.isqrt(n // TILE_X) + 1
    total = divisor_summatory_batch([n // (d * d) for d in range(1, ds)])
    for lo in range(ds, d0, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, d0), dtype=np.int64)
        total += divisor_summatory_tiles(n // (d * d))
    # d1 ~ (2N)^(1/3) balances gather and fold; any d1 in [d0, end] gives the same sum
    d1 = min(max(int((2 * n) ** (1 / 3)), d0), end)
    for lo in range(d0, d1, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, d1), dtype=np.int64)
        total += int(prefix[n // (d * d)].sum())
    return total + _folded_tail(prefix, n, d1)


def s_upto(m: int) -> np.ndarray:
    """S(0), S(1), ..., S(m) as one read-only int64 array, in O(m log log m).

    Starts from f = 1 and, for each prime power q = p^k <= m, replaces the
    factor f(p^(k-1)) of every multiple of q by f(p^k); the division is
    exact because that factor was put there at p^(k-1).  Refuses m above
    the sieve cap, as sieve_tau does.
    """
    check_sieve_limit(m, "m")
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    # g[k] = f(p^k): the pair (p^a, p^(k-a)) has gcd p^min(a, k-a)
    g = [sum(min(a, k - a) + 1 for a in range(k + 1)) for k in range(m.bit_length())]
    f = np.ones(m + 1, dtype=np.int64)
    f[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        q, k = p, 1
        while q <= m:
            multiples = f[q::q]
            multiples //= g[k - 1]
            multiples *= g[k]
            q, k = q * p, k + 1
    s = np.cumsum(f)
    s.flags.writeable = False
    return s


def s_exact(n: int, algorithm: Algorithm = Algorithm.IDENTITY_SUMMATORY) -> int:
    """Evaluate S(N) with the requested algorithm."""
    # An if chain, not an import-time dict, so rebinding s_brute etc. takes effect.
    if algorithm is Algorithm.BRUTE:
        return s_brute(n)
    if algorithm is Algorithm.LEMMA1_LATTICE:
        return s_lemma1(n)
    if algorithm is Algorithm.IDENTITY_SUMMATORY:
        return s_identity(n)
    raise ValueError(f"unknown algorithm {algorithm!r}")
