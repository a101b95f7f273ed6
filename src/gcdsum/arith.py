"""Exact integer primitives: argument checks and the divisor sieve.

Everything downstream assumes these are exact.  Python integers never wrap,
so the only overflow concern is the advertised 64-bit magnitude contract on
public arguments and results, enforced here.
"""

import math

import numpy as np

MAX_NATURAL = 2**63 - 1

SIEVE_CAP = 10**8


def check_natural(n: int, name: str = "n") -> int:
    """Reject anything that is not an int in [0, 2^63 - 1]."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    if n > MAX_NATURAL:
        raise OverflowError(f"{name}={n} exceeds the 2^63 - 1 magnitude contract")
    return n


def check_sieve_limit(limit: int, name: str) -> None:
    """Refuse a sieve size outside [1, SIEVE_CAP] before anything is allocated."""
    check_natural(limit, name)
    if limit < 1:
        raise ValueError(f"{name} must be >= 1, got {limit}")
    if limit > SIEVE_CAP:
        raise ValueError(f"{name}={limit} exceeds the sieve cap of {SIEVE_CAP} entries")


def sieve_tau(limit: int) -> np.ndarray:
    """tau(0..limit) as one read-only int64 array (slot 0 holds 0).

    Marks divisor pairs from below the diagonal.  Each n has one divisor
    pair (d, n/d) with d <= n/d, that is n >= d*d: it adds 2, or 1 when
    n = d*d.  So every d <= sqrt(limit) adds 2 to the multiples of d from
    d*d on and takes 1 back at d*d.  That is isqrt(limit) vectorized
    passes and O(limit log limit) element updates, into one int64 array
    of limit + 1 entries (the cap, SIEVE_CAP = 10^8 entries, keeps it
    under ~0.8 GB).  Read-only, hence safe to share across threads.
    """
    check_sieve_limit(limit, "limit")
    t = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        t[d * d::d] += 2
        t[d * d] -= 1
    t.flags.writeable = False
    return t
