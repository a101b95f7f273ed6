"""Brute-force reference implementations the tests check against.

Everything here is deliberately naive: full divisor enumeration, trial
division, full pair enumeration.  None of it shares code with the package.
"""

import math


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
