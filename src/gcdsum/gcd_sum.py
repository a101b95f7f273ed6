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
          gcdsum_lemma1, integer division only, one division per block
          of r that shares a quotient, wherever the library loads;
          elsewhere it runs in Python, one memoized lattice_count per d.
          It shares no code with identity but the library's build and
          load.

identity  folds the same inner count into the divisor summatory function,

              S(N) = sum_{d <= sqrt(N)} D(floor(N / d^2)),

          the production evaluator.  It splits the d at the table limit
          L = TABLE_CAP = 2^17: with d0 = isqrt(N // (L + 1)) + 1, every
          d >= d0 has floor(N / d^2) <= L, and d1 = max((2N)^(1/3), d0),
          truncated, balances the last two of three ranges; d0 <= d1 <=
          isqrt(N) at every N, as floor_sum.c's header proves:

          d < d0        the large terms, x = floor(N / d^2) > L: exact D(x)
                        from divisor_summatory_batch, in blocks of CHUNK
                        values of d.
          d0 <= d < d1  a gather of prefix[N // d^2] from one divisor
                        table, prefix[x] = D(x) for x <= L; at most 38836
                        terms, at N near 8 * 10^14, and none for N <= 3.
          d >= d1       folded by the hyperbola method on the d-axis into a
                        sum over m <= N // d1^2 of tau(m) times the number
                        of d >= d1 with d^2 m <= N.

          The last two ranges, the table half, are one call of the
          compiled library's gcdsum_table_sum(N, d0), which picks d1
          itself, wherever it loads, and of _table_sum(N, d0), its NumPy
          twin, elsewhere.  The fold runs at every N; for N <= L, d0 = 1
          and S(N) is the table half alone.  The table, 1 MB, holds
          D(0..summatory.TABLE_CAP), the TABLE_CAP this module imports: the
          compiled library sieves it into a static array of its own when
          it loads, and gcdsum_table_sum reads it there, so no table or
          address passes through ctypes.  Where the library does not load,
          _table_prefix builds it once, as np.cumsum of sieve_tau's sieve.
          So the first call in a process loads, or on an empty cache
          compiles, the library even for N <= L.  A call costs about
          sqrt(N) log(d0) exact floor quotients, taken by summatory's
          floor-sum kernels, and, at every N, fewer than 2 N^(1/3) table
          reads in place of sqrt(N).  At N = 10^12 that is 2762 large terms
          in one block, 8.5 million quotients and 16000 table reads.
          Any L in [1, TABLE_CAP] and any d1 in [d0, isqrt(N) + 1] give the
          same integer; they only move the cost between the ranges.
          s_identity reads TABLE_CAP at call time, so the tests lower L by
          patching it; a lowered L reads a prefix of the same table.

All three agree exactly wherever they are all defined; the test suite
leans hard on that three-way agreement.

s_upto is the oracle that `gcdsum verify` checks lemma1 and identity
against.  It shares no hyperbola or divisor-table code with them: the
summand f(n) = sum_{a*b = n} tau(gcd(a, b)) is multiplicative, so one
prime sieve gives f(1..m) and a running sum gives S(0..m).
"""

import enum
import math
import threading

import numpy as np

from . import summatory
from .arith import check_natural, check_sieve_limit, sieve_tau
from .summatory import CHUNK, MAX_X, TABLE_CAP, _check_domain, _isqrt

# lemma1 and identity check N once and then call the unchecked kernels.  They
# are bound under the public names, so a wrapper on this module sees each call
# that identity, and lemma1's Python sum, make; the compiled lemma1 makes none.
# divisor_summatory is bound for perfbench/tracer.py, which wraps it by name.
from .summatory import _lattice_count as lattice_count
from .summatory import divisor_summatory, divisor_summatory_batch

DEFAULT_BRUTE_CAP = 10**7


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
    natural once, by check_natural, and then compared with the cap of its
    algorithm; an N above MAX_X is refused with _check_domain's message.
    """
    check_natural(n, "N")
    if n == 0:
        raise ValueError("S(N) requires N >= 1")
    if algorithm is Algorithm.BRUTE:
        if n > DEFAULT_BRUTE_CAP:
            raise ValueError(f"N={n} exceeds the brute-force cap of {DEFAULT_BRUTE_CAP}")
    elif n > MAX_X:
        _check_domain(n, "N")


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
# [D(0..summatory.TABLE_CAP)] once _table_prefix has run; _TABLE.clear()
# empties it, so that the next call builds again
_TABLE = []


def _table_prefix() -> np.ndarray:
    """D(0..summatory.TABLE_CAP), read-only: the NumPy fallback's divisor table.

    np.cumsum of sieve_tau's sieve, which shares no code with the compiled
    library's sieve.  It is built on the first call in a process and kept
    in _TABLE; a lowered TABLE_CAP reads a prefix of it.  A warm call reads
    _TABLE without a lock.  A cold one takes the lock and looks again under
    it, so threads that start on a cold cache wait for one build instead of
    each building its own.  sieve_tau is looked up as a module global at
    call time, so a wrapper bound on this module sees the build.
    """
    if not _TABLE:
        with _TABLE_LOCK:
            if not _TABLE:
                prefix = np.cumsum(sieve_tau(summatory.TABLE_CAP))
                prefix.flags.writeable = False
                _TABLE.append(prefix)
    return _TABLE[0]


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


def _table_sum(n: int, d0: int) -> int:
    """sum_{d0 <= d <= isqrt(N)} D(N // d^2): gcdsum_table_sum's NumPy twin.

    It sets d1 as the library does, max((2N)^(1/3), d0) truncated, so
    d0 <= d1 <= isqrt(N), then gathers prefix[N // d^2] for d0 <= d < d1
    from _table_prefix's table and folds the d >= d1 with _folded_tail.  Its
    (2N)^(1/3) may round apart from the library's cbrt; any d1 in
    [d0, isqrt(N) + 1] gives the same sum.
    """
    prefix = _table_prefix()
    d1 = max(int((2 * n) ** (1 / 3)), d0)
    gather = int(prefix[n // np.arange(d0, d1, dtype=np.int64) ** 2].sum())
    return gather + _folded_tail(prefix, n, d1)


def s_identity(n: int) -> int:
    """S(N) as a sum of divisor summatory values; the production path.

    The d < d0, whose floor(N / d^2) exceed L = TABLE_CAP, read when the
    call starts, go to divisor_summatory_batch in blocks of CHUNK values of
    d, which bound the arrays that a call holds at once: one batch of all
    1.3 million large terms at MAX_X peaked at 114 MB against 39 MB, for no
    speed gain (BENCH_19.json).  The d >= d0, the table half, are one call
    of the compiled library's gcdsum_table_sum(N, d0) wherever
    summatory._compiled_kernel loads it, looked up at call time, which
    reads the library's own table; elsewhere of _table_sum(N, d0), its
    NumPy twin over _table_prefix's table, which the tests check the
    library against.  Each picks its own d1 = max((2N)^(1/3), d0) <=
    isqrt(N), gathers the d in [d0, d1) from the table's prefix sums, at
    most 38836 of them, at N near 8 * 10^14, and folds the d >= d1, at
    every N.
    """
    check_argument(n, Algorithm.IDENTITY_SUMMATORY)
    d0 = math.isqrt(n // (TABLE_CAP + 1)) + 1
    total = 0
    for lo in range(1, d0, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, d0), dtype=np.int64)
        total += divisor_summatory_batch(n // d ** 2)
    kernel = summatory._compiled_kernel()
    table_sum = _table_sum if kernel is None else kernel.gcdsum_table_sum
    return total + table_sum(n, d0)


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
