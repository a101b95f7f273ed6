import functools
import itertools
import math
import random
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gcdsum.arith import MAX_NATURAL, SIEVE_CAP
from gcdsum.gcd_sum import TABLE_CAP, s_upto
from gcdsum.summatory import CHUNK, MAX_X, RECIP_X
from oracles import common_divisors, s_by_pair_enumeration
from oracles import tau_by_trial_division as tau

# S(N) at every N that the CI workflow evaluates (tests/test_workflow.py holds
# the workflow to this table).  lemma1 confirmed each value at least once:
# those up to 10^16 in the tests or in CI, and S(MAX_X) offline (196 s, and
# later 64 s), which CI checks by identity in one step
FROZEN_S = {
    10**6: 21107131,
    10**12: 43830142939380,
    10**14: 5140534231877816,
    10**15: 55192942833495679,
    10**16: 589805434486172760,
    MAX_X: 14436324993676221952,
}


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
    assert s_identity(10**6) == FROZEN_S[10**6]
    assert s_lemma1(10**6) == FROZEN_S[10**6]


@pytest.mark.parametrize(("n", "value"), [(n, FROZEN_S[n]) for n in (10**14, 10**15, 10**16)])
def test_identity_at_frozen_values_confirmed_by_lemma1(folding_identity, n, value):
    # s_lemma1 gave each value once (52 s, 226 s and 772 s).  10^14 spans two
    # blocks of d.  At 10^15 the row of d = 1 is in [RECIP_X, 2^53): int64 in
    # its first chunk, float divide in its later ones.  At 10^16 the row of
    # d = 1 is at or above 2^53, int64 in every chunk, and those of d = 2, 3
    # take the two routes of 10^15's d = 1.  The rows of larger d multiply
    assert folding_identity(n) == value


def test_identity_at_max_x_on_the_compiled_kernel(folding_identity):
    # the largest batch: 80 blocks of d, 16 rows at or above RECIP_X.  lemma1
    # confirmed the value offline; test_numpy_kernel.py does not import this
    # test, since the NumPy kernel takes about 16 s here
    if summatory._compiled_kernel() is None:
        pytest.skip("no compiled kernel on this host")
    assert folding_identity(MAX_X) == FROZEN_S[MAX_X]


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


def test_s_upto_matches_identity_under_a_lowered_table_cap(monkeypatch):
    # at L = 2^17 every N <= 20000 is the table half alone; at TABLE_CAP = 100 each N
    # above 100 sends up to 14 large terms, short rows of many widths,
    # through divisor_summatory_batch
    table = s_upto(20000)
    _set_table_cap(monkeypatch, 100)
    for n in range(1, 20001):
        assert table[n] == s_identity(n), n


def test_s_upto_is_read_only():
    table = s_upto(10)
    assert table.dtype == np.int64 and len(table) == 11
    with pytest.raises(ValueError):
        table[5] = 0


def test_s_upto_refusals(deadline):
    with pytest.raises(ValueError):
        s_upto(0)
    # refused before the sieve's arrays are allocated
    with deadline(1.0), pytest.raises(ValueError, match=f"^m={SIEVE_CAP + 1} exceeds the sieve cap"):
        s_upto(SIEVE_CAP + 1)


@pytest.mark.parametrize(("lo", "hi"), [(TABLE_CAP - 100, TABLE_CAP + 20001),
                                        (4 * (TABLE_CAP + 1) - 10**4, 4 * (TABLE_CAP + 1) + 10**4)],
                         ids=["d0_1_to_2", "d0_2_to_3"])
def test_identity_matches_s_upto_where_d0_steps_at_the_table_cap(lo, hi):
    # at the shipped L = TABLE_CAP, d0 = isqrt(N // (L + 1)) + 1 steps up at
    # N = d^2 (L + 1): there the large-term half gains a row
    d0 = [math.isqrt(n // (TABLE_CAP + 1)) + 1 for n in (lo, hi - 1)]
    assert d0[1] == d0[0] + 1
    table = s_upto(hi - 1)
    for n in range(lo, hi):
        assert s_identity(n) == table[n], n


@pytest.fixture
def cold_table():
    """Empty the NumPy fallback's table cache before and after the test."""
    gcd_sum._TABLE.clear()
    yield
    gcd_sum._TABLE.clear()


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
def folding_identity(monkeypatch):
    """folding_identity(n) -> s_identity(n), checked to fold its table half.

    Where the library loads, the one gcdsum_table_sum call must get N and d0
    alone, so that the library picks its own d1; elsewhere the one
    _folded_tail call must fold from a d1 in [d0, isqrt(N)].
    """
    calls = []
    kernel = summatory._compiled_kernel()
    if kernel is None:
        fold = gcd_sum._folded_tail

        def record_fold(prefix, n, d1):
            calls.append((n, d1))
            return fold(prefix, n, d1)

        monkeypatch.setattr(gcd_sum, "_folded_tail", record_fold)
    else:
        def record_table_sum(*args):
            calls.append(args)
            return kernel.gcdsum_table_sum(*args)

        recording = types.SimpleNamespace(gcdsum_floor_sum=kernel.gcdsum_floor_sum,
                                          gcdsum_lemma1=kernel.gcdsum_lemma1,
                                          gcdsum_table_sum=record_table_sum)
        monkeypatch.setattr(summatory, "_compiled_kernel", lambda: recording)

    def run(n):
        calls.clear()
        value = s_identity(n)
        if kernel is not None:
            assert calls == [(n, _d0(n))], n
        else:
            assert len(calls) == 1 and calls[0][0] == n, n
            assert _d0(n) <= calls[0][1] <= math.isqrt(n), n
        return value

    return run


@pytest.fixture
def table_builds(monkeypatch, cold_table):
    """The limits of the sieves that gcd_sum calls from here on, in order.

    Only the NumPy fallback's table build calls one in the tests that use
    this; the compiled library builds its table when it loads, in C.
    """
    limits = []

    def counting(limit):
        limits.append(limit)
        return sieve(limit)

    sieve = gcd_sum.sieve_tau
    monkeypatch.setattr(gcd_sum, "sieve_tau", counting)
    return limits


def _numpy_table_builds():
    """table_builds after s_identity on a cold cache: none where the library
    loads, and one table of TABLE_CAP + 1 entries on the NumPy fallback."""
    return [] if summatory._compiled_kernel() is not None else [TABLE_CAP]


def _set_table_cap(monkeypatch, cap):
    """Patch gcd_sum.TABLE_CAP to cap, unless cap is None; returns s_identity's table limit.

    A lower cap moves the split and reads a prefix of the one table; a
    higher one would read past the compiled library's table.
    """
    if cap is not None:
        assert cap <= summatory.TABLE_CAP
        monkeypatch.setattr(gcd_sum, "TABLE_CAP", cap)
    return gcd_sum.TABLE_CAP


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


@pytest.mark.parametrize(("cap", "ds"), [(100, range(2, 61)), (None, range(2, 9))],
                         ids=["cap100", "default_cap"])
def test_identity_split_on_a_square(monkeypatch, traced_identity, cap, ds):
    # N = d^2 (L + 1): floor(N / d^2) = L + 1 exactly, so d is the last large term
    limit = _set_table_cap(monkeypatch, cap)
    for d in ds:
        n = d * d * (limit + 1)
        assert _large_terms(n, limit)[-1] == limit + 1
        assert _check_split(traced_identity, n, limit) == d, d


def test_identity_where_split_point_moves(monkeypatch, traced_identity):
    limit = _set_table_cap(monkeypatch, 1000)
    split = [math.isqrt(n // (limit + 1)) + 1 for n in range(200_001)]
    moves = [n for n in range(2, 200_001) if split[n] != split[n - 1]]
    assert len(moves) >= 10
    # the split moves up by one where n // (L + 1) reaches a perfect square
    assert moves == [k * k * (limit + 1) for k in range(1, len(moves) + 1)]
    for k, n in enumerate(moves, start=1):
        counts = [_check_split(traced_identity, m, limit) for m in (n - 1, n, n + 1)]
        assert counts == [k - 1, k, k], n
    # at the shipped TABLE_CAP, L = 2^17 and the moves are at k^2 (2^17 + 1)
    _set_table_cap(monkeypatch, TABLE_CAP)
    for k in range(1, 13):
        n = k * k * (TABLE_CAP + 1)
        counts = [_check_split(traced_identity, m, TABLE_CAP) for m in (n - 1, n, n + 1)]
        assert counts == [k - 1, k, k], n


@pytest.mark.parametrize("cap", [1000, None])
def test_identity_where_the_first_term_leaves_the_table(monkeypatch, traced_identity, cap):
    limit = _set_table_cap(monkeypatch, cap)
    # N <= L is the table half alone; from L + 1 on, d = 1 goes to
    # divisor_summatory_batch
    for n, expected in ((limit - 1, []), (limit, []), (limit + 1, [limit + 1]),
                        (limit + 2, [limit + 2])):
        assert traced_identity(n) == (s_lemma1(n), expected), n


def _d0(n, limit=TABLE_CAP):
    """s_identity's d0 at n: the first d whose floor(n / d^2) is in the table."""
    return math.isqrt(n // (limit + 1)) + 1


def _compiled_table_sum():
    """gcdsum_table_sum, or a skip where the library does not load."""
    kernel = summatory._compiled_kernel()
    if kernel is None:
        pytest.skip("no compiled kernel on this host")
    return kernel.gcdsum_table_sum


# the N >= 8 * 10^14 nearest to it whose table half has the most terms to
# gather, 38836; 909 more N in [7.8 * 10^14, 8.3 * 10^14] have as many.
# s_lemma1 gave its S(N) once (3.4 s)
LONGEST_GATHER_N = 800005960405842
LONGEST_GATHER_S = 43861045718747322


def test_table_half_folds_at_every_n(folding_identity, traced_identity):
    # no N is too small to fold, also below and at k^2, the first square whose
    # table half has more than CHUNK terms, where a fold that paid only past
    # CHUNK table terms started.  The frozen-value tests check the larger
    # frozen N through folding_identity too.  Every large term still goes
    # through divisor_summatory_batch, in order of d
    k = next(k for k in itertools.count(CHUNK) if k + 1 - _d0(k * k) > CHUNK)
    ns = [*range(1, 3001), TABLE_CAP - 1, TABLE_CAP, TABLE_CAP + 1, 10**8,
          k * k - 1, k * k, k * k + 1]
    expected = {n: s_lemma1(n) for n in ns}
    expected.update({n: FROZEN_S[n] for n in (10**6, 10**12)})
    expected[LONGEST_GATHER_N] = LONGEST_GATHER_S
    for n, value in expected.items():
        assert folding_identity(n) == value, n
    for n in (TABLE_CAP, TABLE_CAP + 1, 10**6, 10**8, k * k - 1, k * k, k * k + 1):
        assert traced_identity(n) == (expected[n], _large_terms(n, TABLE_CAP)), n


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_folded_tail_matches_the_gather_for_every_d1(monkeypatch, cap):
    # and gcdsum_table_sum(n, d) from every start d >= d0 matches the gather
    # of every d' >= d
    kernel = summatory._compiled_kernel()
    limit = _set_table_cap(monkeypatch, cap)
    prefix = gcd_sum._table_prefix()
    for n in range(1, 3001):
        r = math.isqrt(n)
        d0 = _d0(n, limit)
        # tail[d - d0] = sum_{d <= d' <= r} prefix[n // d'^2], the plain gather
        terms = [int(prefix[n // (d * d)]) for d in range(d0, r + 1)]
        tail = list(itertools.accumulate(reversed(terms), initial=0))[::-1]
        for d in range(d0, r + 2):
            assert gcd_sum._folded_tail(prefix, n, d) == tail[d - d0], (n, d)
            if kernel is not None:
                assert kernel.gcdsum_table_sum(n, d) == tail[d - d0], (n, d)


def test_compiled_table_sum_at_its_isqrt_edges():
    # N = k^2 - 1, k^2, k^2 + 1 about 2^52 and 2^53, where N stops being an
    # exact double, and at isqrt(MAX_X), as in
    # test_vectorized_isqrt_matches_math_isqrt: the fold's m = 1 term takes
    # isqrt(N) itself.  Each N is summed from the starts d0, d0 + 1 and
    # isqrt(N), which the library folds from its own d1, against the NumPy
    # twin from the same start
    table_sum = _compiled_table_sum()
    ks = [2**26 + e for e in (-2, -1, 0, 1, 2)] + [94906265 + e for e in (-2, -1, 0, 1, 2)]
    ks.append(math.isqrt(MAX_X))
    for n in (v for k in ks for v in (k * k - 1, k * k, k * k + 1) if v <= MAX_X):
        for d in (_d0(n), _d0(n) + 1, math.isqrt(n)):
            assert table_sum(n, d) == gcd_sum._table_sum(n, d), (n, d)


def test_compiled_table_sum_at_the_longest_gather(monkeypatch):
    table_sum = _compiled_table_sum()
    n = LONGEST_GATHER_N
    # the library gathers up to d1, the truncated cbrt(2.0 * N): 2N = 116961^3
    # + 3, whose cube root is 5 ulps above 116961, so d1 = 116961
    assert 116961**3 < 2 * n < 116962**3 and 116961 - _d0(n) == 38836
    assert table_sum(n, _d0(n)) == gcd_sum._table_sum(n, _d0(n))
    compiled = s_identity(n)
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: None)
    assert s_identity(n) == compiled


@pytest.fixture(scope="module")
def lemma1_at_seeded_n():
    rng = random.Random(1010)
    return {n: s_lemma1(n) for n in (rng.randrange(5 * 10**8, 2 * 10**9) for _ in range(10))}


@pytest.mark.parametrize("cap", [10, 1000, None], ids=["cap10", "cap1000", "default_cap"])
def test_identity_on_seeded_n_with_batch_and_fold(monkeypatch, lemma1_at_seeded_n, cap):
    _set_table_cap(monkeypatch, cap)
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


def test_identity_builds_one_table_per_process(table_builds):
    for n in range(1, 3001):
        assert s_identity(n) == s_lemma1(n), n
    assert s_identity(10**12) == FROZEN_S[10**12]
    assert table_builds == _numpy_table_builds()
    assert [len(t) for t in gcd_sum._TABLE] == [TABLE_CAP + 1] * len(table_builds)


def test_identity_table_follows_the_table_cap(table_builds, monkeypatch):
    # TABLE_CAP, read at call time, moves the split; every value reads a
    # prefix of the one table, which the NumPy fallback builds once, at its
    # full size, and the compiled library when it loads
    expected = {n: s_lemma1(n) for n in (999, 10**6, 10**9 + 7)}
    for cap in (10, 1000, TABLE_CAP):
        _set_table_cap(monkeypatch, cap)
        for n, value in expected.items():
            assert s_identity(n) == value, (cap, n)
    assert table_builds == _numpy_table_builds()


def _table_entries(limit):
    """D(1..limit) as the kernel that runs the test reads them.

    The compiled library's table is read through gcdsum_table_sum: its sums
    of every d from 1 and from 2 differ by the d = 1 term, D(n).
    """
    kernel = summatory._compiled_kernel()
    if kernel is None:
        return gcd_sum._table_prefix()[1:limit + 1].tolist()
    table_sum = kernel.gcdsum_table_sum
    return [table_sum(n, 1) - table_sum(n, 2) for n in range(1, limit + 1)]


@pytest.mark.parametrize("cap", [1, 8193, None])
def test_identity_table_is_the_sieve_prefix_on_a_cold_cache(cold_table, monkeypatch, cap):
    # read from the kernel that runs the test: the C sieve's table, or the NumPy one
    limit = _set_table_cap(monkeypatch, cap)
    assert s_identity(10**6) == FROZEN_S[10**6]
    assert _table_entries(limit) == np.cumsum(sieve_tau(limit))[1:].tolist()


def test_identity_table_is_read_only(cold_table, monkeypatch):
    # the NumPy fallback's table; the compiled library's is a static array in C
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: None)
    s_identity(10)
    prefix = gcd_sum._table_prefix()
    assert gcd_sum._TABLE == [prefix]
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[5] = 0


def test_identity_matches_s_upto_at_every_n_to_the_table_cap():
    # D(N) enters S(N) as the d = 1 term and every other term reads a lower
    # entry, so agreement at every N <= L proves table entries 1..L by
    # induction; entry 0 is read only by the fold, which the frozen values
    # from 10^12 on cover
    table = s_upto(TABLE_CAP + 1).tolist()
    assert [s_identity(n) for n in range(1, TABLE_CAP + 2)] == table[1:]


def test_identity_threads_on_a_cold_table(table_builds):
    # each trial starts 4 threads on an empty table cache and an unloaded
    # library: the locks must let exactly one of them load the library and,
    # on the NumPy fallback, one build the table, and every result must match
    # the last three fold the table half, each kernel call with its own buffer
    ns = (list(range(1, 2001)) + [10**6 + k for k in range(40)]
          + [10**10 + 1, 10**9 + 7, 10**12 + 1])
    serial = [s_identity(n) for n in ns]
    # s_lemma1 too, in the compiled library or through the shared memo
    lemma1_ns = ns[:2040]
    serial_lemma1 = [s_lemma1(n) for n in lemma1_ns]
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
            gcd_sum._TABLE.clear()
            summatory._KERNEL.clear()
            table_builds.clear()
            results = [None] * len(ns)
            lemma1_results = [None] * len(lemma1_ns)
            row_results = [None] * 4
            start = threading.Barrier(4)

            def work(i):
                start.wait()
                for j in range(i, len(lemma1_ns), 4):
                    lemma1_results[j] = s_lemma1(lemma1_ns[j])
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
            assert lemma1_results == serial_lemma1, trial
            assert row_results == [serial_rows] * 4, trial
            assert table_builds == _numpy_table_builds(), trial
    finally:
        sys.setswitchinterval(interval)


class _Untakeable:
    """A lock that fails any test which takes it."""

    def __enter__(self):
        raise AssertionError("a warm call took a lock")

    def __exit__(self, *exc):
        return False


def test_warm_evaluator_calls_take_no_lock(monkeypatch):
    # once the library is loaded and the table built, s_identity and s_lemma1
    # read both caches without their locks
    expected = s_upto(1500)[1500]
    assert s_identity(1500) == s_lemma1(1500) == expected
    monkeypatch.setattr(summatory, "_KERNEL_LOCK", _Untakeable())
    monkeypatch.setattr(gcd_sum, "_TABLE_LOCK", _Untakeable())
    assert s_identity(1500) == expected
    assert s_lemma1(1500) == expected


@pytest.fixture
def cold_memo():
    """Empty lemma1's lattice-count memo before and after the test."""
    summatory._lattice_count.cache_clear()
    yield
    summatory._lattice_count.cache_clear()


def test_lattice_count_memo_is_bounded(cold_memo):
    s_lemma1(10**8)
    info = summatory._lattice_count.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_lemma1_matches_the_oracle_on_a_cold_and_a_warm_memo(cold_memo):
    expected = s_upto(3000).tolist()
    for memo in ("cold", "warm"):
        assert [s_lemma1(n) for n in range(1, 3001)] == expected[1:], memo


def test_lemma1_threads_on_a_cold_memo(cold_memo):
    # 4 threads take every 4th N, so each reads and fills the counts the
    # others' N share, and every result must match the oracle
    ns = list(range(1, 1001)) + [10**6 + k for k in range(20)]
    oracle = s_upto(ns[-1])
    expected = [int(oracle[n]) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            summatory._lattice_count.cache_clear()
            results = [None] * len(ns)
            start = threading.Barrier(4)

            def work(i):
                start.wait()
                for j in range(i, len(ns), 4):
                    results[j] = s_lemma1(ns[j])

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), trial
            assert results == expected, trial
    finally:
        sys.setswitchinterval(interval)


@functools.cache
def lemma1_in_python(n):
    """s_lemma1's sum in Python, the reference of the compiled gcdsum_lemma1.

    Cached, since test_numpy_kernel.py runs the tests that use it again.
    """
    return sum(summatory._lattice_count(n // (d * d)) for d in range(1, math.isqrt(n) + 1))


def test_lemma1_matches_the_oracle_to_20000():
    assert [s_lemma1(n) for n in range(1, 20001)] == s_upto(20000).tolist()[1:]


# a decade, then an N in it, so that large N are drawn as often as small ones
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(1, 10).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k)))
def test_lemma1_matches_its_python_sum(n):
    assert s_lemma1(n) == lemma1_in_python(n)


def test_lemma1_at_squares_and_cubes():
    # at k^2 the last d = k divides N exactly; at k^2 - 1 the last d is k - 1
    edges = {k**2 for k in range(1, 1001)} | {k**3 for k in range(1, 101)}
    for n in sorted(e + delta for e in edges for delta in (-1, 0, 1) if e + delta >= 1):
        assert s_lemma1(n) == lemma1_in_python(n), n


def test_lemma1_next_to_10_to_the_12():
    for n in (10**12 - 1, 10**12 + 1):
        assert s_lemma1(n) == lemma1_in_python(n), n


def _compiled_lemma1():
    """gcdsum_lemma1, or a skip where the library does not load."""
    kernel = summatory._compiled_kernel()
    if kernel is None:
        pytest.skip("no compiled kernel on this host")
    return kernel.gcdsum_lemma1


def test_compiled_lattice_count_matches_the_python_walk_to_20000():
    # gcdsum_lemma1(m, 1) is one lattice_count(m): both of its phases, and
    # the step between them, at every small m
    lemma1 = _compiled_lemma1()
    lattice = summatory._lattice_count.__wrapped__
    assert [lemma1(m, 1) for m in range(1, 20001)] == [lattice(m) for m in range(1, 20001)]


def test_compiled_lattice_count_at_squares_and_pronic_numbers():
    # the walk leaves its one-r blocks where r (r + 1) first exceeds m, so
    # it steps at m = k^2 and k (k + 1); 2^26 and 94906265 bracket m = 2^52
    # and 2^53.  Past 2^40 the Python walk is too slow, and the folded
    # divisor_summatory, which shares no walk with it, is the reference
    lemma1 = _compiled_lemma1()
    ks = [*range(2, 301), 2**16, 2**26, 94906265]
    for m in sorted({b + e for k in ks for b in (k * k, k * (k + 1)) for e in (-1, 0, 1)}):
        expected = summatory._lattice_count.__wrapped__(m) if m < 2**40 else divisor_summatory(m)
        assert lemma1(m, 1) == expected, m


def test_compiled_lattice_count_at_the_top_of_the_domain():
    # the largest squares the walk takes, isqrt(MAX_X)^2 +- 1; its count at
    # MAX_X itself is checked by the next test
    lemma1 = _compiled_lemma1()
    k = math.isqrt(MAX_X)
    for m in (k * k - 1, k * k + 1):
        assert lemma1(m, 1) == divisor_summatory(m), m


def test_compiled_lemma1_sum_past_2_to_the_63_reads_unsigned():
    # S(N) passes 2^63 below MAX_X, and only the offline run of s_lemma1(MAX_X)
    # reaches it; the library's two largest counts there, D(MAX_X) and
    # D(MAX_X / 4), already sum past it (about 7 s on a 2-core Xeon).  The
    # NumPy kernel's test file does not import this test
    lemma1 = _compiled_lemma1()
    value = divisor_summatory(MAX_X) + divisor_summatory(MAX_X // 4)
    assert value > 2**63
    assert lemma1(MAX_X, 2) == value


@pytest.mark.parametrize("evaluator", [s_lemma1, s_identity])
def test_evaluators_refuse_past_max_x_up_front(monkeypatch, deadline, evaluator):
    # the compiled lemma1 is one ctypes call, which the deadline cannot stop
    def never(*args):
        raise AssertionError(f"kernel called with {args}")

    monkeypatch.setattr(gcd_sum, "divisor_summatory_batch", never)
    monkeypatch.setattr(gcd_sum, "lattice_count", never)
    kernel = types.SimpleNamespace(gcdsum_lemma1=never)
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: kernel)
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
    assert s_identity(10**12) == FROZEN_S[10**12]
    assert checks == []


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_evaluators_check_n_is_natural_once(monkeypatch, algorithm):
    # check_argument checks it once for every algorithm, and lemma1 and
    # identity then compare N with MAX_X without another check
    checks = []
    check = gcd_sum.check_natural

    def counting(x, name):
        checks.append(x)
        return check(x, name)

    for module in (gcd_sum, summatory):
        monkeypatch.setattr(module, "check_natural", counting)
    for n in (1, 1000, 10**6):
        checks.clear()
        assert s_exact(n, algorithm) == s_upto(n)[n]
        assert checks == [n], n


def test_identity_under_a_lowered_table_cap(monkeypatch):
    _set_table_cap(monkeypatch, 10)
    assert s_identity(10**6) == FROZEN_S[10**6]
    # 99 short rows, the d < 100, in one divisor_summatory_batch call
    _set_table_cap(monkeypatch, 100)
    assert s_identity(10**6) == FROZEN_S[10**6]
    _set_table_cap(monkeypatch, 1)
    assert s_identity(12345) == s_lemma1(12345)


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
    # the value at the cap is lemma1's and identity's
    assert s_brute(10**7) == 248928748
    with pytest.raises(ValueError):
        s_brute(10**7 + 1)


def test_dispatch_matches_direct_calls():
    n = 1234
    assert s_exact(n, Algorithm.BRUTE) == s_brute(n)
    assert s_exact(n, Algorithm.LEMMA1_LATTICE) == s_lemma1(n)
    assert s_exact(n, Algorithm.IDENTITY_SUMMATORY) == s_identity(n)
    assert s_exact(n) == s_identity(n)
