import math
import random

import numpy as np
import pytest

from gcdsum import (
    Algorithm,
    divisor_summatory,
    isqrt,
    lattice_count,
    s_brute,
    s_exact,
    s_identity,
    s_lemma1,
    sieve_tau,
    tau,
)
from gcdsum.arith import DEFAULT_SIEVE_CAP, sieve_cap
from gcdsum.gcd_sum import TABLE_CAP, s_upto, table_limit
from oracles import common_divisors, s_by_pair_enumeration


def test_examples_brute():
    assert s_brute(1) == 1
    assert s_brute(4) == 9
    assert s_brute(10) == 31


def test_examples_lemma1():
    assert s_lemma1(1) == 1
    # d=1 and d=2 pieces of N=4
    assert lattice_count(4) == 8 and lattice_count(1) == 1
    assert s_lemma1(4) == 9
    assert s_lemma1(10) == lattice_count(10) + lattice_count(2) + lattice_count(1) == 31


def test_examples_identity():
    assert s_identity(4) == divisor_summatory(4) + divisor_summatory(1) == 9
    assert s_identity(10) == 31


def test_regression_value_at_1e6():
    # agreed across all three algorithms when first computed
    assert s_identity(10**6) == 21107131
    assert s_lemma1(10**6) == 21107131


def test_brute_matches_pair_enumeration():
    for n in list(range(1, 120)) + [137, 200, 256]:
        assert s_brute(n) == s_by_pair_enumeration(n)


def test_three_way_agreement_small():
    for n in range(1, 301):
        assert s_brute(n) == s_lemma1(n) == s_identity(n)


def test_three_way_agreement_random():
    rng = random.Random(424242)
    for _ in range(10):
        n = rng.randrange(1, 10**5)
        assert s_brute(n) == s_lemma1(n) == s_identity(n)


def test_s_upto_matches_pair_enumeration():
    table = s_upto(120)
    assert [int(v) for v in table] == [0] + [s_by_pair_enumeration(n) for n in range(1, 121)]


def test_s_upto_matches_brute():
    table = s_upto(2000)
    for n in range(1, 2001):
        assert table[n] == s_brute(n), n


def test_s_upto_matches_identity():
    table = s_upto(20000)
    for n in range(1, 20001):
        assert table[n] == s_identity(n), n


def test_s_upto_is_read_only():
    table = s_upto(10)
    assert table.dtype == np.int64 and len(table) == 11
    with pytest.raises(ValueError):
        table[5] = 0


def test_s_upto_refusals(monkeypatch):
    with pytest.raises(ValueError):
        s_upto(0)
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "1000")
    assert s_upto(1000)[1000] == s_identity(1000)
    with pytest.raises(ValueError, match="GCDSUM_SIEVE_CAP"):
        s_upto(1001)


def _split_on_square(d):
    """The N = d^2 * (L + 1) with L = table_limit(N): d is the last large-x term.

    table_limit(d^2 * (L + 1)) is nondecreasing in L and bounded, so
    iterating it from L = 1 stops at a fixed point.
    """
    cap, limit = sieve_cap(), 1
    while (nxt := table_limit(d * d * (limit + 1), cap)) != limit:
        limit = nxt
    return d * d * (limit + 1), limit


def test_identity_at_perfect_squares():
    for k in range(1, 401):
        for n in (k * k - 1, k * k, k * k + 1):
            if n >= 1:
                assert s_identity(n) == s_lemma1(n), n
    # d^2 | N: floor(N / d^2) is exact, with no rounding to absorb an off-by-one
    for d in range(2, 61):
        for m in (1, 2, 3, 5, 7, 11):
            assert s_identity(m * d * d) == s_lemma1(m * d * d), (m, d)
        n, limit = _split_on_square(d)
        assert isqrt(n // (limit + 1)) == d  # d0 = d + 1
        assert s_identity(n) == s_lemma1(n), n


def _split_quotient(n):
    """n // (L + 1): s_identity reads every d > isqrt of it from its table."""
    return n // (table_limit(n, DEFAULT_SIEVE_CAP) + 1)


def test_identity_where_split_point_moves():
    split = [0] + [isqrt(_split_quotient(n)) + 1 for n in range(1, 200_001)]
    moves = [n for n in range(2, 200_001) if split[n] != split[n - 1]]
    up = [n for n in moves if split[n] > split[n - 1]]
    assert len(up) >= 10
    for n in up:
        # the split moves up where n // (L + 1) reaches a perfect square
        assert isqrt(_split_quotient(n)) ** 2 == _split_quotient(n)
    for n in moves:
        for m in (n - 1, n, n + 1):
            assert s_identity(m) == s_lemma1(m), m


def test_identity_where_table_limit_reaches_its_cap():
    lo, hi = 1, 10**10
    while lo < hi:
        mid = (lo + hi) // 2
        if table_limit(mid, DEFAULT_SIEVE_CAP) < TABLE_CAP:
            lo = mid + 1
        else:
            hi = mid
    assert 3.7e8 < lo < 3.9e8
    assert table_limit(lo - 1, DEFAULT_SIEVE_CAP) < TABLE_CAP
    for n in (lo - 1, lo, lo + 1):
        assert s_identity(n) == s_lemma1(n), n


def test_identity_under_a_lowered_sieve_cap(monkeypatch):
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "10")
    assert s_identity(10**6) == 21107131
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "1")
    assert s_identity(12345) == s_lemma1(12345)


def test_identity_refuses_a_sieve_cap_below_one(monkeypatch):
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "0")
    with pytest.raises(ValueError, match="GCDSUM_SIEVE_CAP"):
        s_identity(100)


def test_s_is_strictly_increasing_with_tau_sized_steps():
    # S(N) - S(N-1) = sum over divisor pairs a*b = N of tau(gcd(a, b)),
    # which has tau(N) terms, each >= 1, and the pairs (1,N),(N,1) give 2.
    t = sieve_tau(10**4)
    prev = 0
    for n in range(1, 10**4 + 1):
        cur = s_identity(n)
        step = cur - prev
        assert step >= int(t.tau[n])
        if n >= 2:
            assert step >= 2
        prev = cur


def test_s_dominates_divisor_summatory():
    for n in range(1, 10**4 + 1, 7):
        assert s_identity(n) >= divisor_summatory(n)


def test_common_divisor_count_is_tau_of_gcd():
    rng = random.Random(31337)
    for _ in range(1000):
        a = rng.randrange(1, 5000)
        b = rng.randrange(1, 5000)
        assert len(common_divisors(a, b)) == tau(math.gcd(a, b))


def test_rejects_zero():
    for fn in (s_brute, s_lemma1, s_identity):
        with pytest.raises(ValueError):
            fn(0)


def test_brute_cap():
    with pytest.raises(ValueError):
        s_brute(10**7 + 1)
    with pytest.raises(ValueError):
        s_brute(50, cap=10)


def test_dispatch_matches_direct_calls():
    n = 1234
    assert s_exact(n, Algorithm.BRUTE) == s_brute(n)
    assert s_exact(n, Algorithm.LEMMA1_LATTICE) == s_lemma1(n)
    assert s_exact(n, Algorithm.IDENTITY_SUMMATORY) == s_identity(n)
    assert s_exact(n) == s_identity(n)
