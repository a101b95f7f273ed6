import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest

from gcdsum import (
    Algorithm,
    divisor_summatory,
    lattice_count,
    s_brute,
    s_exact,
    s_identity,
    s_lemma1,
    sieve_tau,
)
from gcdsum import gcd_sum, summatory
from gcdsum.arith import DEFAULT_SIEVE_CAP, MAX_NATURAL
from gcdsum.gcd_sum import TABLE_CAP, s_upto
from gcdsum.summatory import CHUNK, MAX_X, RECIP_X
from oracles import common_divisors, s_by_pair_enumeration
from oracles import tau_by_trial_division as tau


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


@pytest.mark.parametrize(("n", "value"), [(10**14, 5140534231877816),
                                          (10**15, 55192942833495679)])
def test_identity_at_frozen_values_confirmed_by_lemma1(monkeypatch, n, value):
    # s_lemma1 gave each value once (52 s and 226 s); 10^14 spans two blocks
    # of d and 10^15 takes the float divide at d = 1 and the products above
    _set_cap(monkeypatch, None)
    assert s_identity(n) == value


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


def test_s_upto_matches_identity_under_a_lowered_sieve_cap(monkeypatch):
    # at the default cap every N <= 20000 is one gather; at cap 100 each N
    # above 100 sends up to 14 large terms, short rows of many widths,
    # through divisor_summatory_batch
    table = s_upto(20000)
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "100")
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


@pytest.fixture
def cold_table():
    """Empty s_identity's table cache before and after the test."""
    gcd_sum._build_table_prefix.cache_clear()
    yield
    gcd_sum._build_table_prefix.cache_clear()


@pytest.fixture
def traced_identity(monkeypatch):
    """traced_identity(n) -> (s_identity(n), every x its large-term half evaluated).

    The x are recorded in evaluation order, as divisor_summatory_batch took
    them, one int64 array per call.
    """
    seen = []
    batch = gcd_sum.divisor_summatory_batch

    def record(xs):
        seen.extend(xs.tolist())
        return batch(xs)

    monkeypatch.setattr(gcd_sum, "divisor_summatory_batch", record)

    def run(n):
        seen.clear()
        return s_identity(n), list(seen)

    return run


@pytest.fixture
def table_builds(monkeypatch, cold_table):
    """The limits of the divisor tables built from here on, in order."""
    limits = []

    def counting(limit):
        limits.append(limit)
        return sieve_tau(limit)

    monkeypatch.setattr(gcd_sum, "sieve_tau", counting)
    return limits


def _set_cap(monkeypatch, cap):
    """Set GCDSUM_SIEVE_CAP, or unset it for None; returns s_identity's table limit."""
    if cap is None:
        monkeypatch.delenv("GCDSUM_SIEVE_CAP", raising=False)
    else:
        monkeypatch.setenv("GCDSUM_SIEVE_CAP", cap)
    return min(TABLE_CAP, int(cap or DEFAULT_SIEVE_CAP))


def _large_terms(n, limit):
    """The x = floor(n / d^2) above the table limit, in order of d."""
    return [n // (d * d) for d in range(1, math.isqrt(n) + 1) if n // (d * d) > limit]


def _check_split(traced_identity, n, limit):
    value, large = traced_identity(n)
    assert value == s_lemma1(n), n
    assert large == _large_terms(n, limit), n
    return len(large)


def test_identity_at_perfect_squares():
    for k in range(1, 401):
        for n in (k * k - 1, k * k, k * k + 1):
            if n >= 1:
                assert s_identity(n) == s_lemma1(n), n
    # d^2 | N: floor(N / d^2) is exact, with no rounding to absorb an off-by-one
    for d in range(2, 61):
        for m in (1, 2, 3, 5, 7, 11):
            assert s_identity(m * d * d) == s_lemma1(m * d * d), (m, d)


@pytest.mark.parametrize(("cap", "ds"), [("100", range(2, 61)), (None, range(2, 9))],
                         ids=["cap100", "default_cap"])
def test_identity_split_on_a_square(monkeypatch, traced_identity, cap, ds):
    # N = d^2 (L + 1): floor(N / d^2) = L + 1 exactly, so d is the last large term
    limit = _set_cap(monkeypatch, cap)
    for d in ds:
        n = d * d * (limit + 1)
        assert _large_terms(n, limit)[-1] == limit + 1
        assert _check_split(traced_identity, n, limit) == d, d


def test_identity_where_split_point_moves(monkeypatch, traced_identity):
    limit = _set_cap(monkeypatch, "1000")
    split = [math.isqrt(n // (limit + 1)) + 1 for n in range(200_001)]
    moves = [n for n in range(2, 200_001) if split[n] != split[n - 1]]
    assert len(moves) >= 10
    # the split moves up by one where n // (L + 1) reaches a perfect square
    assert moves == [k * k * (limit + 1) for k in range(1, len(moves) + 1)]
    for k, n in enumerate(moves, start=1):
        counts = [_check_split(traced_identity, m, limit) for m in (n - 1, n, n + 1)]
        assert counts == [k - 1, k, k], n
    # at the default cap, L = 2^17 and the moves are at k^2 (2^17 + 1)
    _set_cap(monkeypatch, None)
    for k in range(1, 13):
        n = k * k * (TABLE_CAP + 1)
        counts = [_check_split(traced_identity, m, TABLE_CAP) for m in (n - 1, n, n + 1)]
        assert counts == [k - 1, k, k], n


@pytest.mark.parametrize("cap", ["1000", None])
def test_identity_where_the_first_term_leaves_the_table(monkeypatch, traced_identity, cap):
    limit = _set_cap(monkeypatch, cap)
    # N <= L is one gather; from L + 1 on, d = 1 goes to divisor_summatory_batch
    for n, expected in ((limit - 1, []), (limit, []), (limit + 1, [limit + 1]),
                        (limit + 2, [limit + 2])):
        assert traced_identity(n) == (s_lemma1(n), expected), n


def test_batched_halves_start_where_the_gather_needs_two_chunks(monkeypatch, traced_identity):
    # below the first N whose gather of d >= d0 exceeds CHUNK terms, the table
    # half is one gather; from it on, the d >= d1 are folded.  Either way every
    # large term goes through divisor_summatory_batch, in order of d
    _set_cap(monkeypatch, None)
    k = next(k for k in itertools.count(CHUNK)
             if k - math.isqrt(k * k // (TABLE_CAP + 1)) > CHUNK)
    folds = []
    fold = gcd_sum._folded_tail

    def record_fold(prefix, n, d1):
        folds.append((n, d1))
        return fold(prefix, n, d1)

    monkeypatch.setattr(gcd_sum, "_folded_tail", record_fold)
    for n in (TABLE_CAP, 10**6, 10**8, k * k - 1, k * k, k * k + 1):
        folds.clear()
        value, large = traced_identity(n)
        assert value == s_lemma1(n), n
        assert large == _large_terms(n, TABLE_CAP), n
        if n < k * k:
            assert folds == [], n
        else:
            assert len(folds) == 1 and folds[0][0] == n, n
            assert math.isqrt(n // (TABLE_CAP + 1)) < folds[0][1] <= math.isqrt(n), n


@pytest.mark.parametrize("cap", ["10", "100", "1000"])
def test_folded_tail_matches_the_gather_for_every_d1(monkeypatch, cap):
    limit = _set_cap(monkeypatch, cap)
    prefix = gcd_sum._table_prefix(limit)
    for n in range(1, 3001):
        r = math.isqrt(n)
        d0 = math.isqrt(n // (limit + 1)) + 1
        # tail[d1 - d0] = sum_{d1 <= d <= r} prefix[n // d^2], the plain gather
        terms = [int(prefix[n // (d * d)]) for d in range(d0, r + 1)]
        tail = list(itertools.accumulate(reversed(terms), initial=0))[::-1]
        for d1 in range(d0, r + 2):
            assert gcd_sum._folded_tail(prefix, n, d1) == tail[d1 - d0], (n, d1)


@pytest.fixture(scope="module")
def lemma1_at_seeded_n():
    rng = random.Random(1010)
    return {n: s_lemma1(n) for n in (rng.randrange(5 * 10**8, 2 * 10**9) for _ in range(10))}


@pytest.mark.parametrize("cap", ["10", "1000", None], ids=["cap10", "cap1000", "default_cap"])
def test_identity_on_seeded_n_with_tiles_and_fold(monkeypatch, lemma1_at_seeded_n, cap):
    _set_cap(monkeypatch, cap)
    for n, value in lemma1_at_seeded_n.items():
        assert s_identity(n) == value, n


def test_vectorized_isqrt_matches_math_isqrt():
    # 2^26 and 2^26.5 bracket 2^52 and 2^53, where q stops being an exact double
    ks = [2**26 + e for e in range(-2, 3)] + [94906265 + e for e in range(-2, 3)]
    ks.append(math.isqrt(MAX_X))
    q = [v for k in ks for v in (k * k - 1, k * k, k * k + 1) if v <= MAX_X]
    q += random.Random(2718).choices(range(MAX_X + 1), k=10**4) + [0, 1, MAX_X]
    got = summatory._isqrt(np.array(q, dtype=np.int64))
    assert got.tolist() == [math.isqrt(v) for v in q]


def test_identity_builds_one_table_per_process(table_builds, monkeypatch):
    _set_cap(monkeypatch, None)
    for n in range(1, 3001):
        assert s_identity(n) == s_lemma1(n), n
    assert s_identity(10**12) == 43830142939380
    assert table_builds == [TABLE_CAP]
    assert len(gcd_sum._table_prefix(TABLE_CAP)) == TABLE_CAP + 1


def test_identity_table_follows_the_sieve_cap(table_builds, monkeypatch):
    expected = {n: s_lemma1(n) for n in (999, 10**6, 10**9 + 7)}
    for cap in ("10", "1000", None):
        _set_cap(monkeypatch, cap)
        for n, value in expected.items():
            assert s_identity(n) == value, (cap, n)
    # the cap bounds the table's memory: each cap gets a table of its own size
    assert table_builds == [10, 1000, TABLE_CAP]


def test_identity_table_is_read_only(cold_table, monkeypatch):
    _set_cap(monkeypatch, None)
    s_identity(10)
    prefix = gcd_sum._table_prefix(TABLE_CAP)
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[5] = 0


def test_identity_threads_on_a_cold_table(table_builds, monkeypatch):
    # each trial starts 4 threads on an empty cache: the lock must let
    # exactly one of them build the table, and every result must match
    _set_cap(monkeypatch, None)
    # the last three fold the table half, each kernel call with its own buffer
    ns = (list(range(1, 2001)) + [10**6 + k for k in range(40)]
          + [10**10 + 1, 10**9 + 7, 10**12 + 1])
    serial = [s_identity(n) for n in ns]
    # and every thread runs the kernels on rows of all three routes, in
    # reciprocal first chunks of long and short rows and in shared later chunks
    rows = np.array([2**53 + 1, 2**53 - 1, RECIP_X, RECIP_X - 1, RECIP_X - 2, 10**12,
                     10**12 - 1, 10**8, 10**8 - 1, 10**6, 10**6 - 1], dtype=np.int64)
    widths = np.array([3 * CHUNK] * 3 + [2 * CHUNK] * 4 + [10**4] * 2 + [10**3] * 2)
    d_rows = np.array([10**12, 10**12 - 1, CHUNK * CHUNK, CHUNK * CHUNK - 1,
                       *range(10**6, 10**6 - CHUNK, -7)], dtype=np.int64)
    serial_rows = (summatory.floor_sum(rows, widths),
                   summatory.divisor_summatory_batch(d_rows))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            gcd_sum._build_table_prefix.cache_clear()
            table_builds.clear()
            results = [None] * len(ns)
            row_results = [None] * 4
            start = threading.Barrier(4)

            def work(i):
                start.wait()
                for j in range(i, len(ns), 4):
                    results[j] = s_identity(ns[j])
                row_results[i] = (summatory.floor_sum(rows, widths),
                                  summatory.divisor_summatory_batch(d_rows))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), trial
            assert results == serial, trial
            assert row_results == [serial_rows] * 4, trial
            assert table_builds == [TABLE_CAP], trial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("evaluator", [s_lemma1, s_identity])
def test_evaluators_refuse_past_max_x_up_front(monkeypatch, deadline, evaluator):
    def never(x):
        raise AssertionError(f"kernel called with {x}")

    monkeypatch.setattr(gcd_sum, "divisor_summatory_batch", never)
    monkeypatch.setattr(gcd_sum, "lattice_count", never)
    for n in (MAX_X + 1, MAX_NATURAL):
        with deadline(1.0), pytest.raises(OverflowError, match="MAX_X"):
            evaluator(n)


def test_evaluators_check_n_once_not_every_term(monkeypatch):
    # the per-term kernels skip the argument check that N already passed
    checks = []
    check = summatory._check_domain

    def counting(x, name):
        checks.append(x)
        check(x, name)

    monkeypatch.setattr(summatory, "_check_domain", counting)
    assert s_lemma1(10**5) == s_identity(10**5) == s_upto(10**5)[10**5]
    assert s_identity(10**12) == 43830142939380
    assert checks == []


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
        assert step >= int(t[n])
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


def test_dispatch_matches_direct_calls():
    n = 1234
    assert s_exact(n, Algorithm.BRUTE) == s_brute(n)
    assert s_exact(n, Algorithm.LEMMA1_LATTICE) == s_lemma1(n)
    assert s_exact(n, Algorithm.IDENTITY_SUMMATORY) == s_identity(n)
    assert s_exact(n) == s_identity(n)
