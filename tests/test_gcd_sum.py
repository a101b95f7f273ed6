import functools
import gc
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
# the workflow to this table).  lemma1 confirmed each value up to 10^16 at
# least once; S(MAX_X) rests on identity alone, in one CI step
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
def test_identity_at_frozen_values_confirmed_by_lemma1(n, value):
    # s_lemma1 gave each value once (52 s, 226 s and 772 s).  10^14 spans two
    # blocks of d.  At 10^15 the row of d = 1 is in [RECIP_X, 2^53): int64 in
    # its first chunk, float divide in its later ones.  At 10^16 the row of
    # d = 1 is at or above 2^53, int64 in every chunk, and those of d = 2, 3
    # take the two routes of 10^15's d = 1.  The rows of larger d multiply
    assert s_identity(n) == value


def test_identity_at_max_x_on_the_compiled_kernel():
    # the largest batch: 80 blocks of d, 16 rows at or above RECIP_X.  The
    # value rests on identity alone; test_numpy_kernel.py does not import
    # this test, since the NumPy kernel takes about 16 s here
    if summatory._compiled_kernel() is None:
        pytest.skip("no compiled kernel on this host")
    assert s_identity(MAX_X) == FROZEN_S[MAX_X]


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
    # at L = 2^17 every N <= 20000 is one gather; at TABLE_CAP = 100 each N
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
        return build(limit)

    build = gcd_sum.divisor_prefix
    monkeypatch.setattr(gcd_sum, "divisor_prefix", counting)
    return limits


def _set_table_cap(monkeypatch, cap):
    """Patch gcd_sum.TABLE_CAP to cap, unless cap is None; returns s_identity's table limit."""
    if cap is not None:
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
    # N <= L is one gather; from L + 1 on, d = 1 goes to divisor_summatory_batch
    for n, expected in ((limit - 1, []), (limit, []), (limit + 1, [limit + 1]),
                        (limit + 2, [limit + 2])):
        assert traced_identity(n) == (s_lemma1(n), expected), n


def _table_half(prefix, n, d0, d1):
    """The table half of s_identity(n) as the NumPy path sums it: the plain
    gather of d0 <= d < d1 and the fold of d >= d1."""
    gather = int(prefix[n // np.arange(d0, d1, dtype=np.int64) ** 2].sum())
    return gather + gcd_sum._folded_tail(prefix, n, d1)


def _compiled_table_sum():
    """gcdsum_table_sum, or a skip where the library does not load."""
    kernel = summatory._compiled_kernel()
    if kernel is None:
        pytest.skip("no compiled kernel on this host")
    return kernel.gcdsum_table_sum


def _record_folds(monkeypatch):
    """The list that gets (n, d1) for each s_identity call that folds the
    d >= d1, d1 <= isqrt(n), on the path that runs: gcdsum_table_sum where
    the library loads, _folded_tail elsewhere."""
    folds = []
    kernel = summatory._compiled_kernel()
    if kernel is None:
        fold = gcd_sum._folded_tail

        def record_fold(prefix, n, d1):
            folds.append((n, d1))
            return fold(prefix, n, d1)

        monkeypatch.setattr(gcd_sum, "_folded_tail", record_fold)
    else:
        def record_table_sum(n, d0, d1, address):
            if d1 <= math.isqrt(n):
                folds.append((n, d1))
            return kernel.gcdsum_table_sum(n, d0, d1, address)

        recording = types.SimpleNamespace(gcdsum_floor_sum=kernel.gcdsum_floor_sum,
                                          gcdsum_divisor_prefix=kernel.gcdsum_divisor_prefix,
                                          gcdsum_table_sum=record_table_sum)
        monkeypatch.setattr(summatory, "_compiled_kernel", lambda: recording)
    return folds


def test_batched_halves_start_where_the_gather_needs_two_chunks(monkeypatch, traced_identity):
    # below the first N whose gather of d >= d0 exceeds CHUNK terms, the table
    # half is one gather; from it on, the d >= d1 are folded.  Either way every
    # large term goes through divisor_summatory_batch, in order of d
    k = next(k for k in itertools.count(CHUNK)
             if k - math.isqrt(k * k // (TABLE_CAP + 1)) > CHUNK)
    ns = (TABLE_CAP, 10**6, 10**8, k * k - 1, k * k, k * k + 1)
    expected = {n: s_lemma1(n) for n in ns}
    folds = _record_folds(monkeypatch)
    for n in ns:
        folds.clear()
        value, large = traced_identity(n)
        assert value == expected[n], n
        assert large == _large_terms(n, TABLE_CAP), n
        if n < k * k:
            assert folds == [], n
        else:
            assert len(folds) == 1 and folds[0][0] == n, n
            assert math.isqrt(n // (TABLE_CAP + 1)) < folds[0][1] <= math.isqrt(n), n


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_folded_tail_matches_the_gather_for_every_d1(monkeypatch, cap):
    # and gcdsum_table_sum(n, d0, d1) matches the gather of every d >= d0
    kernel = summatory._compiled_kernel()
    limit = _set_table_cap(monkeypatch, cap)
    prefix, address = gcd_sum._table_prefix(limit)
    for n in range(1, 3001):
        r = math.isqrt(n)
        d0 = math.isqrt(n // (limit + 1)) + 1
        # tail[d1 - d0] = sum_{d1 <= d <= r} prefix[n // d^2], the plain gather
        terms = [int(prefix[n // (d * d)]) for d in range(d0, r + 1)]
        tail = list(itertools.accumulate(reversed(terms), initial=0))[::-1]
        for d1 in range(d0, r + 2):
            assert gcd_sum._folded_tail(prefix, n, d1) == tail[d1 - d0], (n, d1)
            if kernel is not None:
                assert kernel.gcdsum_table_sum(n, d0, d1, address) == tail[0], (n, d1)


# the N >= 8 * 10^14 nearest to it whose table half has the most terms to
# gather, 38836; 909 more N in [7.8 * 10^14, 8.3 * 10^14] have as many
LONGEST_GATHER_N = 800005960405842


def _split(n, limit=TABLE_CAP):
    """s_identity's d0 and d1 at n."""
    d0 = math.isqrt(n // (limit + 1)) + 1
    end = math.isqrt(n) + 1
    return d0, end if end - d0 <= CHUNK else min(max(int((2 * n) ** (1 / 3)), d0), end)


def test_compiled_table_sum_at_its_isqrt_edges():
    # N = k^2 - 1, k^2, k^2 + 1 about 2^52 and 2^53, where N stops being an
    # exact double, and at isqrt(MAX_X), as in
    # test_vectorized_isqrt_matches_math_isqrt: the fold's m = 1 term takes
    # isqrt(N) itself.  Each N is folded from s_identity's d1 and from d0
    table_sum = _compiled_table_sum()
    prefix, address = gcd_sum._table_prefix(TABLE_CAP)
    ks = [2**26 + e for e in (-2, -1, 0, 1, 2)] + [94906265 + e for e in (-2, -1, 0, 1, 2)]
    ks.append(math.isqrt(MAX_X))
    for n in (v for k in ks for v in (k * k - 1, k * k, k * k + 1) if v <= MAX_X):
        d0, d1 = _split(n)
        for d in (d0, d0 + 1, d1):
            assert table_sum(n, d0, d, address) == _table_half(prefix, n, d0, d), (n, d)


def test_compiled_table_sum_at_the_longest_gather(monkeypatch):
    table_sum = _compiled_table_sum()
    prefix, address = gcd_sum._table_prefix(TABLE_CAP)
    n = LONGEST_GATHER_N
    d0, d1 = _split(n)
    assert d1 - d0 == 38836
    assert table_sum(n, d0, d1, address) == _table_half(prefix, n, d0, d1)
    compiled = s_identity(n)
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: None)
    assert s_identity(n) == compiled


def test_identity_reads_no_freed_table_after_a_cache_clear(monkeypatch):
    # the address that gcdsum_table_sum reads lives in the table's own cache
    # entry, so no address can outlive the array it points into
    expected = s_upto(3000)[1:].tolist()
    caps = (1000, 100, 1000, TABLE_CAP)
    junk = []
    for cap in caps:
        gcd_sum._build_table_prefix.cache_clear()
        gc.collect()
        # blocks of every table's size, kept to the end, to be handed out in
        # place of the freed tables
        junk += [np.full(c + 1, -1, dtype=np.int64) for c in caps for _ in range(2)]
        _set_table_cap(monkeypatch, cap)
        assert [s_identity(n) for n in range(1, 3001)] == expected, cap


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
    assert table_builds == [TABLE_CAP]
    assert len(gcd_sum._table_prefix(TABLE_CAP)[0]) == TABLE_CAP + 1


def test_identity_table_follows_the_table_cap(table_builds, monkeypatch):
    # the table follows TABLE_CAP, read at call time: each value gets a table
    # of its own size
    expected = {n: s_lemma1(n) for n in (999, 10**6, 10**9 + 7)}
    for cap in (10, 1000, TABLE_CAP):
        _set_table_cap(monkeypatch, cap)
        for n, value in expected.items():
            assert s_identity(n) == value, (cap, n)
    assert table_builds == [10, 1000, TABLE_CAP]


@pytest.mark.parametrize("cap", [1, 8193, None])
def test_identity_table_is_the_sieve_prefix_on_a_cold_cache(cold_table, monkeypatch, cap):
    # built by the kernel that runs the test: the C sieve, or the NumPy one
    limit = _set_table_cap(monkeypatch, cap)
    s_identity(10**6)
    assert gcd_sum._table_prefix(limit)[0].tolist() == np.cumsum(sieve_tau(limit)).tolist()


def test_identity_table_is_read_only(cold_table):
    s_identity(10)
    prefix, address = gcd_sum._table_prefix(TABLE_CAP)
    assert address == prefix.ctypes.data
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[5] = 0


def test_identity_threads_on_a_cold_table(table_builds):
    # each trial starts 4 threads on an empty table cache and an unloaded
    # library: the locks must let exactly one of them build the table and
    # one load the library, and every result must match
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
            gcd_sum._build_table_prefix.cache_clear()
            summatory._load_kernel.cache_clear()
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
            assert table_builds == [TABLE_CAP], trial
    finally:
        sys.setswitchinterval(interval)


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


def test_compiled_lemma1_sum_past_2_to_the_63_reads_unsigned():
    # S(N) passes 2^63 below MAX_X, and only the offline run of s_lemma1(MAX_X)
    # reaches it; the library's two largest counts there, D(MAX_X) and
    # D(MAX_X / 4), already sum past it (15-18 s on a 2-core Xeon).  The
    # NumPy kernel's test file does not import this test
    kernel = summatory._compiled_kernel()
    if kernel is None:
        pytest.skip("no compiled kernel on this host")
    value = divisor_summatory(MAX_X) + divisor_summatory(MAX_X // 4)
    assert value > 2**63
    assert kernel.gcdsum_lemma1(MAX_X, 2) == value


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
    # lemma1 and identity check it in summatory._check_domain, brute in gcd_sum
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
