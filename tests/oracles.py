"""Brute-force reference implementations the tests check against.

Everything here is deliberately naive: full divisor enumeration, trial
division, full pair enumeration.  None of it shares code with the package.
"""

import math

import mpmath

_CTX = mpmath.MPContext()
_CTX.dps = 40


def tau_by_enumeration(n: int) -> int:
    """Divisor count by checking every candidate up to n."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def tau_by_trial_division(n: int) -> int:
    """Number of positive divisors of n, by trial division up to sqrt(n).

    Each d <= sqrt(n) dividing n pairs with n // d; a square root counts once.
    """
    if n < 1:
        raise ValueError(f"tau({n}) is undefined")
    count = 0
    d = 1
    while d * d < n:
        if n % d == 0:
            count += 2
        d += 1
    if d * d == n:
        count += 1
    return count


def lattice_by_enumeration(m: int) -> int:
    """Count pairs (r, s) with r*s <= m by walking them all."""
    return sum(1 for r in range(1, m + 1) for _ in range(m // r))


def s_by_pair_enumeration(n: int) -> int:
    """The defining double sum, evaluated pair by pair."""
    total = 0
    for a in range(1, n + 1):
        for b in range(1, n // a + 1):
            total += tau_by_enumeration(math.gcd(a, b))
    return total


def common_divisors(a: int, b: int) -> list[int]:
    """All d dividing both a and b, by enumeration."""
    return [d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0]


def partial_zeta2(m: int):
    """sum_{d<=m} 1/d^2 by direct summation, rounded once to 40 digits.

    The terms are summed as 256-bit fixed-point Python ints; truncating
    each one loses less than m * 2^-256 in all.
    """
    if m < 1:
        raise ValueError(f"partial_zeta2 needs m >= 1, got {m}")
    one = 1 << 256
    return _CTX.mpf(sum(one // (d * d) for d in range(1, m + 1))) / one
