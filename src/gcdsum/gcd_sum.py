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

          The whole sum is one call of the compiled library's
          gcdsum_lemma1, integer division only, wherever the library
          loads; elsewhere it runs in Python, one memoized lattice_count
          per d.  It shares no code with identity but the library's
          build and load.

identity  folds the same inner count into the divisor summatory function,

              S(N) = sum_{d <= sqrt(N)} D(floor(N / d^2)),

          the production evaluator.  It splits the d at the table limit
          L = TABLE_CAP = 2^17: with d0 = isqrt(N // (L + 1)) + 1, every
          d >= d0 has floor(N / d^2) <= L, and d1 = (2N)^(1/3), clamped to
          [d0, sqrt(N) + 1], balances the last two of three ranges:

          d < d0        the large terms, x = floor(N / d^2) > L: exact D(x)
                        from divisor_summatory_batch, in blocks of CHUNK
                        values of d.
          d0 <= d < d1  a gather of prefix[N // d^2] from one divisor
                        table, prefix[x] = D(x) for x <= L; at most 38836
                        terms, at N near 8 * 10^14.
          d >= d1       folded by the hyperbola method on the d-axis into a
                        sum over m <= N // d1^2 of tau(m) times the number
                        of d >= d1 with d^2 m <= N.

          The last two ranges, the table half, are one call of the
          compiled library's gcdsum_table_sum wherever it loads, and a
          NumPy gather and _folded_tail elsewhere.  While the table half
          has at most CHUNK terms (N below about 2.7 * 10^8) the fold does
          not pay, so d1 = sqrt(N) + 1 and nothing is folded; for N <= L,
          d0 = 1 and S(N) is the gather alone.  The table, 1 MB, is built
          on the first call and kept for the life of the process; every
          later call only reads it.  summatory.divisor_prefix builds it:
          the compiled library's segmented divisor sieve, which writes
          D(0..L) in one pass, or np.cumsum of sieve_tau's sieve where the
          library does not load.  So the first call in a process loads,
          or on an empty cache compiles, the library even for N <= L.  A
          call costs about sqrt(N) log(d0) exact floor quotients, taken by
          summatory's floor-sum kernels, and fewer than 2 N^(1/3) table
          reads in place of sqrt(N).  At N = 10^12 that is 2762 large terms in one block,
          8.5 million quotients and 16000 table reads.
          Any L >= 1 and any d1 in [d0, sqrt(N) + 1] give the same
          integer; they only move the cost between the ranges.  s_identity
          reads TABLE_CAP at call time, so the tests lower L by patching it.

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

from . import summatory
from .arith import check_natural, check_sieve_limit, sieve_tau
from .summatory import CHUNK, _check_domain, _isqrt, divisor_prefix

# lemma1 and identity check N once and then call the unchecked kernels.  They
# are bound under the public names, so a wrapper on this module sees each call
# that identity, and lemma1's Python sum, make; the compiled lemma1 makes none.
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
    every floor(N / d^2) is in the kernels' domain.  N is checked to be a
    natural once, by check_natural or by _check_domain, which calls it.
    """
    brute = algorithm is Algorithm.BRUTE
    (check_natural if brute else _check_domain)(n, "N")
    if n == 0:
        raise ValueError("S(N) requires N >= 1")
    if brute and n > DEFAULT_BRUTE_CAP:
        raise ValueError(f"N={n} exceeds the brute-force cap of {DEFAULT_BRUTE_CAP}")


def s_brute(n: int) -> int:
    """S(N) straight from the definition: one gcd evaluation per pair.

    Every pair with a*b <= n has min(a, b) <= isqrt(n), so summing the
    rows a <= isqrt(n) twice and subtracting the doubly counted square
    block (both coordinates <= isqrt(n)), whose row a is the first isqrt(n)
    entries of row a, visits each ordered pair exactly once.  Rows run as
    vectorized gcd + divisor-table gathers.
    """
    check_argument(n, Algorithm.BRUTE)
    r = math.isqrt(n)
    taus = sieve_tau(r)
    total = 0
    for a in range(1, r + 1):
        # row a of the square block is the first r entries of row a
        t = taus[np.gcd(a, np.arange(1, n // a + 1, dtype=np.int64))]
        total += 2 * int(t.sum()) - int(t[:r].sum())
    return total


def s_lemma1(n: int) -> int:
    """S(N) as a sum of hyperbola lattice counts, one per d <= sqrt(N).

    One call of the compiled library's gcdsum_lemma1 wherever
    summatory._compiled_kernel loads it, looked up at call time.  Elsewhere
    the same sum runs in Python, each count through lattice_count and its
    memo; the tests check the library against that sum.
    """
    check_argument(n, Algorithm.LEMMA1_LATTICE)
    end = math.isqrt(n)
    kernel = summatory._compiled_kernel()
    if kernel is None:
        return sum(lattice_count(n // (d * d)) for d in range(1, end + 1))
    return kernel.gcdsum_lemma1(n, end)


_TABLE_LOCK = threading.Lock()


def _table_prefix(limit: int) -> tuple[np.ndarray, int]:
    """The read-only prefix sums of tau up to limit, built once per limit,
    and the address of their data.

    The lock makes threads that start on a cold cache wait for one build
    instead of each building its own.
    """
    with _TABLE_LOCK:
        return _build_table_prefix(limit)


@functools.lru_cache(maxsize=4)
def _build_table_prefix(limit: int) -> tuple[np.ndarray, int]:
    """D(0..limit) from divisor_prefix(limit), and the address of its data
    for gcdsum_table_sum; call it through _table_prefix.

    Reading prefix.ctypes.data costs more than the C call, so it is read
    once per table.  The address is kept in the same cache entry as the
    array, which keeps the array alive as long as the address can be read.

    s_identity passes TABLE_CAP, so a process builds one table, of
    TABLE_CAP + 1 entries; the tests build one more for each TABLE_CAP they
    patch in.  divisor_prefix is looked up as a module global at call
    time, so a wrapper bound on this module sees the build.  On the first
    build in a process it loads the compiled library, taking summatory's
    kernel lock inside the table lock; nothing takes the two in the other
    order.
    """
    prefix = divisor_prefix(limit)
    prefix.flags.writeable = False
    return prefix, prefix.ctypes.data


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

    The d < d0, whose floor(N / d^2) exceed L = TABLE_CAP, read when the
    call starts, go to divisor_summatory_batch in blocks of CHUNK values of
    d, which bound the arrays that a call holds at once: one batch of all
    1.3 million large terms at MAX_X peaked at 114 MB against 39 MB, for no
    speed gain (BENCH_19.json).  The d in [d0, d1) are gathered from the
    table's prefix sums, at most 38836 of them, at N near 8 * 10^14.  The
    d >= d1 are folded.  While the table half has at most CHUNK terms,
    d1 = sqrt(N) + 1 and nothing is folded.  The table half is one call of
    the compiled library's gcdsum_table_sum wherever
    summatory._compiled_kernel loads it, looked up at call time; elsewhere
    it is one NumPy gather and _folded_tail, which the tests check the
    library against.
    """
    check_argument(n, Algorithm.IDENTITY_SUMMATORY)
    limit = TABLE_CAP
    prefix, address = _table_prefix(limit)
    d0 = math.isqrt(n // (limit + 1)) + 1
    end = math.isqrt(n) + 1
    # the fold pays only past CHUNK table terms; there d1 ~ (2N)^(1/3) balances
    # gather and fold, and any d1 in [d0, end] gives the same sum
    d1 = end if end - d0 <= CHUNK else min(max(int((2 * n) ** (1 / 3)), d0), end)
    total = 0
    for lo in range(1, d0, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, d0), dtype=np.int64)
        total += divisor_summatory_batch(n // d ** 2)
    kernel = summatory._compiled_kernel()
    if kernel is not None:
        return total + kernel.gcdsum_table_sum(n, d0, d1, address)
    total += int(prefix[n // np.arange(d0, d1, dtype=np.int64) ** 2].sum())
    if d1 < end:
        total += _folded_tail(prefix, n, d1)
    return total


def s_upto(m: int) -> np.ndarray:
    """S(0), S(1), ..., S(m) as one read-only int64 array, in O(m log log m).

    Starts from f = 1 and, for each prime power q = p^k <= m, replaces the
    factor f(p^(k-1)) of every multiple of q by f(p^k); the division is
    exact because that factor was put there at p^(k-1).  Refuses m above
    arith.SIEVE_CAP before allocating, as sieve_tau does.
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
