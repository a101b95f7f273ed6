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
          floor(N / d^2) <= L.  Those many small terms are read from one
          divisor table of L entries by a numpy gather, CHUNK values of d
          at a time; the d0 - 1 large terms each call divisor_summatory.
          For N <= L, d0 = 1 and S(N) is a single gather of sqrt(N)
          entries.  The table is built on the first call for each L and
          kept for the life of the process, so a lowered sieve cap picks
          its own table; every later call only reads it.
          About sqrt(N) log(d0) numpy floor-sum steps plus sqrt(N) gathers
          per call.  Any L >= 1 gives the same integer; L only moves the
          cost between the two halves.

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
from .summatory import CHUNK, _check_domain

# lemma1 and identity check N once and then call the unchecked kernels.  They
# are bound under the public names, so a wrapper on this module sees each call.
from .summatory import _divisor_summatory as divisor_summatory
from .summatory import _lattice_count as lattice_count

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


def s_identity(n: int) -> int:
    """S(N) as a sum of divisor summatory values; the production path.

    The d with floor(N / d^2) above L = min(TABLE_CAP, sieve cap) call
    divisor_summatory; the rest are gathered from the table's prefix sums.
    """
    _check_summable(n)
    limit = min(TABLE_CAP, sieve_cap())
    d0 = math.isqrt(n // (limit + 1)) + 1
    total = sum(divisor_summatory(n // (d * d)) for d in range(1, d0))
    prefix = _table_prefix(limit)
    end = math.isqrt(n) + 1
    for lo in range(d0, end, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, end), dtype=np.int64)
        total += int(prefix[n // (d * d)].sum())
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
