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
          floor(N / d^2) <= L.  The d fall into two ranges:

          d < d0   the large terms, x = floor(N / d^2) > L: exact D(x) from
                   divisor_summatory_batch, in blocks of CHUNK values of d.
          d >= d0  the table half, read from one divisor table of L entries.
                   prefix[N // d^2] is gathered with numpy for d < d1; the
                   d >= d1 are folded by the hyperbola method on the d-axis
                   into a sum over m <= N // d1^2 of tau(m) times the number
                   of d >= d1 with d^2 m <= N.

          d1 = (2N)^(1/3), clamped to [d0, sqrt(N) + 1], balances the gather
          and the fold.  While the table half has at most CHUNK terms (at
          the default cap, N below about 2.7 * 10^8) the fold does not pay,
          so d1 = sqrt(N) + 1 and the table half is one gather; for N <= L,
          d0 = 1 and S(N) is that gather alone.  The table is built on the
          first call for each L and kept for the life of the process, so a
          lowered sieve cap picks its own table; every later call only reads
          it.  A call costs about sqrt(N) log(d0) exact floor quotients and
          fewer than 2 N^(1/3) table reads in place of sqrt(N).  The batch
          takes the quotients in summatory's compiled kernel, or in its
          NumPy kernel where that does not load, and runs over
          sqrt(N) / CHUNK later chunks of k, building one chunk of
          reciprocals for each that two of its rows reach.  At N = 10^12
          that is 2762 large terms in one block, 8.5 million quotients,
          61 later chunks, 30 with reciprocals built, and 16000 table
          reads.  Any L >= 1 and
          any d1 in [d0, sqrt(N) + 1] give the same integer; they only move
          the cost between the ranges.

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
from .summatory import CHUNK, _check_domain, _isqrt

# lemma1 and identity check N once and then call the unchecked kernels.  They
# are bound under the public names, so a wrapper on this module sees each call.
# divisor_summatory is bound for perfbench/tracer.py, which wraps it by name.
from .summatory import _lattice_count as lattice_count
from .summatory import divisor_summatory, divisor_summatory_batch

DEFAULT_BRUTE_CAP = 10**7
TABLE_CAP = 2**17


class Algorithm(enum.Enum):
    """Selects one of the three S(N) evaluators."""

    BRUTE = "brute"
    LEMMA1_LATTICE = "lemma1"
    IDENTITY_SUMMATORY = "identity"


def check_argument(n: int, algorithm: Algorithm) -> None:
    """Refuse N as s_exact(N, algorithm) does, without evaluating S(N).

    Every evaluator starts with this check.  brute takes 1 <= N <=
    DEFAULT_BRUTE_CAP; lemma1 and identity take 1 <= N <= MAX_X, so that
    every floor(N / d^2) is in the kernels' domain.
    """
    check_natural(n)
    if n == 0:
        raise ValueError("S(N) requires N >= 1")
    if algorithm is not Algorithm.BRUTE:
        _check_domain(n, "N")
    elif n > DEFAULT_BRUTE_CAP:
        raise ValueError(f"N={n} exceeds the brute-force cap of {DEFAULT_BRUTE_CAP}")


def s_brute(n: int) -> int:
    """S(N) straight from the definition: one gcd evaluation per pair.

    Every pair with a*b <= n has min(a, b) <= isqrt(n), so summing the
    rows a <= isqrt(n) twice and subtracting the doubly counted square
    block (both coordinates <= isqrt(n)) visits each ordered pair exactly
    once.  Rows run as vectorized gcd + divisor-table gathers.
    """
    check_argument(n, Algorithm.BRUTE)
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
    check_argument(n, Algorithm.LEMMA1_LATTICE)
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

    The d < d1 run in blocks of CHUNK values of d.  In each block the
    d < d0, whose floor(N / d^2) exceed L = min(TABLE_CAP, sieve cap), go
    to divisor_summatory_batch, and the rest are gathered from the table's
    prefix sums.  The d >= d1 are folded.  While the table half has at most
    CHUNK terms, d1 = sqrt(N) + 1 and nothing is folded.
    """
    check_argument(n, Algorithm.IDENTITY_SUMMATORY)
    limit = min(TABLE_CAP, sieve_cap())
    prefix = _table_prefix(limit)
    d0 = math.isqrt(n // (limit + 1)) + 1
    end = math.isqrt(n) + 1
    # the fold pays only past CHUNK table terms; there d1 ~ (2N)^(1/3) balances
    # gather and fold, and any d1 in [d0, end] gives the same sum
    d1 = end if end - d0 <= CHUNK else min(max(int((2 * n) ** (1 / 3)), d0), end)
    total = 0
    for lo in range(1, d1, CHUNK):
        x = n // np.arange(lo, min(lo + CHUNK, d1), dtype=np.int64) ** 2
        large = max(d0 - lo, 0)
        if large:
            total += divisor_summatory_batch(x[:large])
        total += int(prefix[x[large:]].sum())
    if d1 < end:
        total += _folded_tail(prefix, n, d1)
    return total


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
