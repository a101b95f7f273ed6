import functools
import itertools
import math
import platform
import random
import shutil
import subprocess
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdsum import divisor_summatory, lattice_count, sieve_tau, summatory
from gcdsum.arith import MAX_NATURAL
from gcdsum.summatory import CHUNK, MAX_X, RECIP_X, TABLE_CAP, divisor_summatory_batch, floor_sum
from oracles import lattice_by_enumeration, tau_by_enumeration, tau_by_trial_division

# the float route takes every x below 2^53
FLOAT_TOP = 2**53 - 1
# below (CHUNK + 1)^2 a row with r = isqrt(x) fits one chunk of k
SHORT_X = (CHUNK + 1) ** 2


def _floor_sum(x, r):
    return floor_sum(np.array(x, dtype=np.int64), np.array(r, dtype=np.int64))


def test_divisor_summatory_examples():
    assert divisor_summatory(0) == 0
    assert divisor_summatory(5) == 10  # 1+2+2+3+2
    assert divisor_summatory(100) == 482
    assert divisor_summatory(100) == int(np.cumsum(sieve_tau(100))[100])


def test_lattice_count_examples():
    assert lattice_count(0) == 0
    assert lattice_count(1) == 1
    assert lattice_count(5) == 10
    assert lattice_count(5) == lattice_by_enumeration(5)
    assert lattice_count(100) == 482


def test_lattice_matches_enumeration_small():
    for m in range(0, 200):
        assert lattice_count(m) == lattice_by_enumeration(m)


def test_folded_and_blocked_routes_agree_small():
    # the two implementations are independent; they must agree everywhere
    prefix = np.cumsum(sieve_tau(2000))
    for m in range(0, 2001):
        d = divisor_summatory(m)
        assert d == lattice_count(m)
        assert d == int(prefix[m])


def test_folded_and_blocked_routes_agree_random_large():
    rng = random.Random(7777)
    for _ in range(100):
        x = rng.randrange(1, 10**9)
        assert divisor_summatory(x) == lattice_count(x)


def test_summatory_increment_is_tau():
    t = sieve_tau(10**5)
    prev = 0
    for x in range(1, 10**5 + 1):
        cur = divisor_summatory(x)
        assert cur - prev == int(t[x])
        prev = cur


def test_boundary_points_on_hyperbola_count():
    # rs = m itself counts: going from m-1 to m adds exactly tau(m) points
    for m in (6, 12, 36):
        gained = lattice_count(m) - lattice_count(m - 1)
        assert gained == tau_by_enumeration(m)


def _bound(x):
    ctx = mpmath.MPContext()
    ctx.dps = 60
    return x * (1 + ctx.log(x))


def test_max_x_is_the_largest_x_whose_bound_fits():
    assert _bound(MAX_X) <= MAX_NATURAL < _bound(MAX_X + 1)
    assert 10**16 < MAX_X


@pytest.mark.parametrize("fn", [divisor_summatory, lattice_count])
def test_arguments_past_max_x_are_refused_before_the_loop(deadline, fn):
    for x in (MAX_X + 1, MAX_NATURAL):
        with deadline(1.0), pytest.raises(OverflowError, match="MAX_X"):
            fn(x)


def test_magnitude_contract_on_inputs():
    with pytest.raises(OverflowError):
        divisor_summatory(2**63)
    with pytest.raises(OverflowError):
        lattice_count(2**63)
    with pytest.raises(ValueError):
        divisor_summatory(-5)


@pytest.mark.parametrize("x", [MAX_X, MAX_X - 1, 2**53])
def test_floor_sum_chunks_cannot_wrap(x):
    # a row at or above RECIP_X sums its first chunk whole in int64; at MAX_X
    # that sum reaches MAX_X * H(CHUNK), a quarter of 2^63
    for r in (1, 2, 7, 100, CHUNK, CHUNK + 1):
        assert _floor_sum([x], [r]) == sum(x // k for k in range(1, r + 1))


def test_floor_sum_across_chunk_boundaries():
    x = 10**12
    for r in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        assert _floor_sum([x], [r]) == sum(x // k for k in range(1, r + 1))


def test_divisor_summatory_returns_python_int():
    value = divisor_summatory(10**10)
    assert type(value) is int
    assert value == lattice_count(10**10)


def test_float_quotients_floor_exactly_below_2_53():
    # x = k * floor(FLOAT_TOP / k) divides exactly; x - 1 puts x/k 1/k below
    # an integer, the closest a non-integer quotient gets to rounding up
    rng = np.random.default_rng(9009)
    k = np.concatenate([rng.integers(1, math.isqrt(FLOAT_TOP) + 1, 10**4),
                        rng.integers(1, FLOAT_TOP + 1, 10**4)])
    for x in (k * (FLOAT_TOP // k), k * (FLOAT_TOP // k) - 1):
        q = np.floor(np.divide(x.astype(np.float64), k.astype(np.float64)))
        assert np.array_equal(q.astype(np.int64), x // k)


# e bounds the relative excess of fl(x * r_k) over x/k: three roundings of at
# most 2^-53 each, and the bump of 2^-50
EXCESS = (1 + Fraction(1, 2**53)) ** 3 * (1 + Fraction(1, 2**50)) - 1


def _reciprocals(k):
    """r_k for a float64 array of k, by floor_sum.c's expression: two
    correctly rounded operations, so NumPy gives the same doubles."""
    return 1.0 / k * (1 + 2**-50)


def test_recip_x_is_the_largest_x_whose_excess_stays_below_one():
    assert RECIP_X * EXCESS < 1 <= (RECIP_X + 1) * EXCESS
    # the d >= 2 rows of N = 10^15 multiply, but not d = 1
    assert 10**15 // 4 < RECIP_X < 10**15


@functools.cache
def _harmonic_chunk():
    """H(CHUNK) = sum_{k <= CHUNK} 1/k, exactly."""
    return sum(Fraction(1, k) for k in range(1, CHUNK + 1))


def test_a_whole_first_chunk_below_recip_x_sums_exactly_in_float64():
    # a row below RECIP_X sums its first chunk whole in float64: every partial sum
    # is at most x * H(CHUNK), which must stay below 2^53
    assert (RECIP_X - 1) * _harmonic_chunk() < 2**53


def test_a_whole_int64_first_chunk_at_max_x_cannot_wrap():
    # a row at or above RECIP_X sums its first chunk whole in int64: every
    # partial sum is at most x * H(CHUNK), which must stay below 2^63
    assert MAX_X * _harmonic_chunk() < 2**63


def test_reciprocals_are_bumped_above_one_over_k():
    # every k of the table, and chunks of k sampled up to isqrt(RECIP_X)
    rng = np.random.default_rng(5150)
    top = math.isqrt(RECIP_X)
    starts = [*rng.integers(CHUNK, top - CHUNK, 3).tolist(), top - CHUNK + 1]
    ks = [np.arange(1, CHUNK + 1, dtype=np.float64)]
    ks += [np.arange(lo, lo + CHUNK, dtype=np.float64) for lo in starts]
    floor = 1 + Fraction(1, 2**51)
    for k in ks:
        recip = _reciprocals(k)
        for kk, rk in zip(k.tolist(), recip.tolist()):
            assert Fraction(rk) * int(kk) >= floor, kk


def test_reciprocal_products_floor_exactly_below_recip_x():
    # x = k * floor(X / k) divides exactly and x - 1 puts x/k 1/k below an
    # integer, the closest a non-integer quotient gets to rounding up
    top = RECIP_X - 1
    rng = np.random.default_rng(8128)
    k = np.concatenate([rng.integers(1, math.isqrt(top) + 1, 10**4),
                        rng.integers(1, top + 1, 10**4)])
    recip = _reciprocals(k.astype(np.float64))
    for x in (k * (top // k), k * (top // k) - 1):
        q = np.floor(x.astype(np.float64) * recip)
        assert np.array_equal(q.astype(np.int64), x // k)


def _prefix_sums(x, r):
    return [0, *itertools.accumulate(x // k for k in range(1, r + 1))]


# 263334173793272 is the largest x with x * (1 + ln x) <= 2^53, the last x
# whose whole D(x) fits a double; the reciprocal products end at RECIP_X - 1
# and the float route at 2^53 - 1
@pytest.mark.parametrize("x", [263334173793271, 263334173793272, 263334173793273,
                               RECIP_X - 1, RECIP_X, RECIP_X + 1,
                               2**53 - 2, 2**53 - 1, 2**53, 2**53 + 1])
def test_floor_sum_on_both_sides_of_float_x(x):
    # one row divides; two rows below RECIP_X share their reciprocals
    prefix = _prefix_sums(x, 10**5)
    for r in (1, CHUNK - 1, CHUNK, CHUNK + 1, 10**5):
        assert _floor_sum([x], [r]) == prefix[r]
        assert _floor_sum([x, x], [r, r]) == 2 * prefix[r]


@pytest.mark.parametrize("x", [MAX_X, MAX_X - 1, 2**53, FLOAT_TOP, 10**15])
def test_floor_sum_at_every_chunk_edge(x):
    # every chunk is summed whole: the first is k = 1..CHUNK, in int64 for
    # these rows, and each later one [lo, lo + CHUNK) on the row's own route
    r_max = 10**5
    prefix = _prefix_sums(x, r_max)
    for edge in range(CHUNK, r_max, CHUNK):
        for r in (edge - 1, edge, edge + 1):
            assert _floor_sum([x], [r]) == prefix[r]


def test_divisor_summatory_at_max_x_in_bounded_time(deadline):
    # the value agrees with lattice_count(MAX_X); the first chunk is summed in
    # int64 and each later one as a whole chunk, about 2.3 s on a 2-core Xeon
    with deadline(30.0):
        assert divisor_summatory(MAX_X) == 9032947277897432256


def test_divisor_summatory_across_the_float_route_limit():
    # FLOAT_TOP takes the float route and 2^53 the int64 one; the value at
    # FLOAT_TOP is lattice_count(FLOAT_TOP), frozen here because it takes
    # tens of seconds, and D gains tau(2^53) = 54 from 2^53 - 1 to 2^53
    assert divisor_summatory(FLOAT_TOP) == 332286676471485609
    assert divisor_summatory(2**53) - divisor_summatory(FLOAT_TOP) == 54


def test_divisor_summatory_across_recip_x():
    # RECIP_X - 1 takes the reciprocal products, RECIP_X and
    # RECIP_X + 1 the int64 first chunk and the float divide; the value at
    # RECIP_X - 1 is lattice_count(RECIP_X - 1), frozen here because it takes
    # over 10 s, and D gains tau(x) at each of the next two steps
    primes = (2, 3, 5, 7, 31, 251, 601, 1187, 1801, 4051, 19709623201)
    assert all(tau_by_trial_division(p) == 2 for p in primes)
    assert RECIP_X == 2**3 * 3 * 31 * 251 * 601 * 1801 * 4051
    assert RECIP_X + 1 == 5 * 7 * 1187 * 19709623201
    d = [divisor_summatory(x) for x in (RECIP_X - 1, RECIP_X, RECIP_X + 1)]
    assert d[0] == 28244395996127067
    # tau(2^3 * six primes) = 4 * 2^6 and tau(four primes) = 2^4
    assert [d[1] - d[0], d[2] - d[1]] == [256, 16]


def _seeded_rows(hi, lo, rows, seed):
    """rows seeded x in [lo, hi], sorted non-increasing, with both ends included."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[hi, lo], rng.integers(lo, hi + 1, rows - 2)])
    return np.sort(x)[::-1].astype(np.int64)


@pytest.mark.parametrize("x", [
    # r = 1 on CHUNK + 5 rows
    _seeded_rows(3, 1, CHUNK + 5, 1),
    # r = CHUNK - 1 and r = CHUNK: rows just short of and exactly one chunk wide
    _seeded_rows(CHUNK * CHUNK - 1, (CHUNK - 1) ** 2, 3, 2),
    _seeded_rows(SHORT_X - 1, CHUNK * CHUNK, 3, 3),
    np.array([SHORT_X - 1, CHUNK * CHUNK, CHUNK * CHUNK - 1], dtype=np.int64),
    # r = 128 on every row: 128 rows of CHUNK entries in all, and 300 rows
    _seeded_rows(129 * 129 - 1, 128 * 128, 128, 4),
    _seeded_rows(129 * 129 - 1, 128 * 128, 300, 5),
    # rows of falling width: the short rows of s_identity(10^12) and of a
    # steeper range
    np.array([10**12 // (d * d) for d in range(62, 2763)], dtype=np.int64),
    np.array([10**8 // (d * d) for d in range(1, 60)], dtype=np.int64),
    _seeded_rows(SHORT_X - 1, 1, 500, 6),
], ids=["r1", "r_chunk_minus_1", "r_chunk", "r_chunk_edges", "r128_chunk_entries", "r128",
        "rows_of_1e12", "rows_of_1e8", "mixed"])
def test_short_row_batches_match_per_call_divisor_summatory(x):
    # short rows in one batch sum as they do one call per row
    assert divisor_summatory_batch(x) == sum(divisor_summatory(v) for v in x.tolist())


def _python_floor_sum(x, r):
    return sum(v // k for v, w in zip(x, r) for k in range(1, w + 1))


def _square_rows(widths):
    """Rows x = w^2 with r = w, each as wide as its square root."""
    return [w * w for w in widths], list(widths)


# rows d in [500, 2763) of 10^12: 2263 short rows of widths 2000 down to 361
ROWS_1E12_LATE = [10**12 // (d * d) for d in range(500, 2763)]


# ragged batches: rows of unequal, falling width
@pytest.mark.parametrize(("x", "r"), [
    # four rows of one width
    ([2600, 2590, 2550, 2500], [50] * 4),
    # a row one entry wider than the next
    ([2700, 2500], [51, 50]),
    # rows from 300 down to 151, just over half as wide
    _square_rows([300, 151, 151]),
    # rows with r = 0 at the end add nothing
    ([2700, 2600, 2500, 7, 0, 0], [51, 51, 50, 0, 0, 0]),
    # rows from CHUNK + 5 over CHUNK // 2 + 1, CHUNK // 2 and CHUNK // 2 - 1
    # down to widths 8000 and 4950
    _square_rows([CHUNK + 5, CHUNK // 2 + 1, CHUNK // 2, CHUNK // 2 - 1,
                  8000, 6000, 5000, 4990, 4950]),
    (ROWS_1E12_LATE, [math.isqrt(v) for v in ROWS_1E12_LATE]),
    # every route in the chunks from 2 CHUNK + 1 to 4 CHUNK + 1, past the r
    # that the hypothesis test draws: the chunk from 2 CHUNK + 1 has one row
    # below RECIP_X, 7 entries wide, and in the chunk from 3 CHUNK + 1 only
    # rows at or above RECIP_X are live
    ([MAX_X, 2**53 - 1, RECIP_X, RECIP_X - 1, 10**12],
     [4 * CHUNK + 3, 4 * CHUNK, 3 * CHUNK + 5, 2 * CHUNK + 7, CHUNK + 1]),
], ids=["one_width", "one_entry", "half_width", "r0_at_the_end",
        "around_half_chunk", "rows_of_1e12_late", "past_the_drawn_r"])
def test_ragged_remainders_match_python_floor_sums(x, r):
    assert _floor_sum(x, r) == _python_floor_sum(x, r)


# rows below RECIP_X: the compiled kernel multiplies them in groups of four
# over the span of each group's fourth row and sums the rest of each row
# alone, as it does the last 0-3 rows of a chunk
GROUPED_X = [RECIP_X - 1, RECIP_X - 2, 10**15 // 4, 10**14 + 39, 10**12 + 39, 10**12,
             10**9 + 7, 2 * CHUNK * CHUNK, 12345]
GROUPED_R = [
    # the first group straddles CHUNK and 2 CHUNK, with tails in the first
    # chunk; the second lies in the first chunk
    [2 * CHUNK + 2, 2 * CHUNK - 1, CHUNK + 3, CHUNK - 2, CHUNK - 2, CHUNK - 5, 700, 3, 2],
    # seven rows reach the chunk from CHUNK + 1: one group there, whose fourth
    # row has one entry in it, and three rows alone; the fourth row of the
    # second group ends at CHUNK, and the last row has r = 0
    [2 * CHUNK + 2, 2 * CHUNK + 1, 2 * CHUNK, CHUNK + 1, CHUNK + 1, CHUNK + 1, CHUNK + 1, CHUNK,
     0],
]


@functools.cache
def _four_row_batches():
    """(x, r, Python floor sum) for the first 1 to 9 rows of each GROUPED_R,
    every remainder of the row count mod 4."""
    batches = []
    for r in GROUPED_R:
        sums = [_python_floor_sum([v], [w]) for v, w in zip(GROUPED_X, r)]
        batches += [(GROUPED_X[:m], r[:m], sum(sums[:m])) for m in range(1, len(r) + 1)]
    return batches


def test_four_row_groups_match_python_floor_sums():
    for x, r, expected in _four_row_batches():
        assert _floor_sum(x, r) == expected, (x, r)


def test_kernel_isqrt_is_exact_at_every_square_edge():
    # the kernel takes r = isqrt(x) from _isqrt; check it at every square edge
    # up to (2 CHUNK + 1)^2, past the first chunk edge of k
    k = np.arange(1, 2 * CHUNK + 2, dtype=np.int64)
    x = np.concatenate([k * k - 1, k * k, k * k + 1])
    assert summatory._isqrt(x).tolist() == [math.isqrt(v) for v in x.tolist()]


def _batch(rng, tops, rows):
    """rows seeded x from [t // 2, 2 t] around each of the tops, non-increasing."""
    x = [int(v) for t in tops for v in rng.integers(t // 2, 2 * t, rows)]
    return sorted(x, reverse=True)


@pytest.mark.parametrize("seed", range(4))
def test_floor_sum_batch_matches_each_row(seed):
    # rows cross 2^53 and RECIP_X, and reach different numbers of chunks
    rng = np.random.default_rng(seed)
    x = _batch(rng, (2**53, RECIP_X, 10**12), 4)
    r = sorted(rng.integers(1, 3 * CHUNK, len(x)).tolist(), reverse=True)
    rows = [sum(v // k for k in range(1, w + 1)) for v, w in zip(x, r)]
    assert [_floor_sum([v], [w]) for v, w in zip(x, r)] == rows
    assert _floor_sum(x, r) == sum(rows)


def test_divisor_summatory_batch_matches_each_row():
    rng = np.random.default_rng(4242)
    x = [RECIP_X + 1, RECIP_X, RECIP_X - 1, *_batch(rng, (10**12, 10**8, SHORT_X, 10), 3), 1, 0]
    batch = np.array(x, dtype=np.int64)
    assert divisor_summatory_batch(batch) == sum(divisor_summatory(v) for v in x)
    assert divisor_summatory_batch(batch[:0]) == 0
    assert divisor_summatory_batch(np.array([10**9], dtype=np.int64)) == lattice_count(10**9)


def test_divisor_summatory_batch_mixes_every_kind_of_row():
    # in one call: two rows >= 2^53 on the int64 route, then the float divide,
    # whole first chunks just below RECIP_X, rows with r = CHUNK + 1, CHUNK and
    # CHUNK - 1 around the edge of the first chunk, and short rows; the
    # values at 2^53 and 2^53 - 1 are frozen, as in the float-route test
    edges = [SHORT_X + 2 * CHUNK + 2, SHORT_X, SHORT_X - 1, CHUNK * CHUNK,
             CHUNK * CHUNK - 1, (CHUNK - 1) ** 2]
    short = [10**6 // (d * d) for d in range(1, 40)]
    x = [RECIP_X + 1, RECIP_X - 1, RECIP_X - 2, RECIP_X - 10**9, *edges, *short]
    assert [math.isqrt(v) for v in edges[:5]] == [CHUNK + 1, CHUNK + 1, CHUNK, CHUNK, CHUNK - 1]
    expected = 2 * 332286676471485609 + 54 + sum(divisor_summatory(v) for v in x)
    assert divisor_summatory_batch(np.array([2**53, FLOAT_TOP, *x], dtype=np.int64)) == expected


@pytest.fixture
def cold_kernel(monkeypatch, tmp_path):
    """An empty kernel cache in a fresh cache directory, for the test only."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    summatory._KERNEL.clear()
    yield tmp_path / "gcdsum"
    summatory._KERNEL.clear()


def _rows_1e14():
    """The first rows of s_identity(10^14): every route, first and later chunks."""
    x = np.array([10**14 // (d * d) for d in range(1, 400)], dtype=np.int64)
    return x, summatory._isqrt(x)


@pytest.mark.parametrize("compiler", ["no-such-compiler", "false"],
                         ids=["missing_compiler", "failing_compile"])
def test_floor_sum_falls_back_to_numpy_without_a_compiled_kernel(monkeypatch, cold_kernel,
                                                                  compiler):
    # with no compiler on the path, or one that exits 1, floor_sum runs the
    # NumPy kernel without a warning, which filterwarnings would turn into an
    # error, and the failed build leaves nothing in the cache
    monkeypatch.setattr(summatory, "_COMPILERS", (compiler,))
    x, r = _rows_1e14()
    assert summatory._compiled_kernel() is None
    assert floor_sum(x, r) == summatory._floor_sum_numpy(x, r)
    assert divisor_summatory(10**12) == 27785452449086
    assert list(cold_kernel.glob("*")) == []


def test_threads_on_a_cold_kernel_cache_build_once(monkeypatch, cold_kernel):
    # four threads start floor_sum at once on an empty cache: one builds the
    # library, the others wait for it, and all get the NumPy kernel's sum
    builds = []
    build = summatory._build

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(summatory, "_build", counting)
    x, r = _rows_1e14()
    results = [None] * 4
    start = threading.Barrier(4)

    def work(t):
        start.wait()
        results[t] = floor_sum(x, r)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == [summatory._floor_sum_numpy(x, r)] * 4
    if summatory._compiled_kernel() is None:
        pytest.skip("no compiled kernel on this host")
    assert len(builds) == 1
    assert [p.suffix for p in cold_kernel.iterdir()] == [".so"]
    assert cold_kernel.stat().st_mode & 0o777 == 0o700


def test_floor_sum_refuses_rows_of_unequal_length():
    with pytest.raises(ValueError, match="one length"):
        floor_sum(np.array([9, 4], dtype=np.int64), np.array([3], dtype=np.int64))


# the rows of a batch: x near RECIP_X, 2^53 and MAX_X, or anywhere up to MAX_X,
# with r = 0, isqrt(x), anything, or next to a multiple of CHUNK, all capped so
# that the pure-Python sum stays fast; and short rows with r = isqrt(x)
R_CAP = 2 * CHUNK + 2
_edge_x = st.sampled_from([RECIP_X, 2**53, MAX_X - 1]).flatmap(lambda e: st.integers(e - 2, e + 1))
_short_x = st.one_of(st.integers(0, 10**6), st.integers(0, SHORT_X))


@st.composite
def _row(draw):
    x = draw(st.one_of(_edge_x, st.integers(0, MAX_X), _short_x))
    r = draw(st.one_of(
        st.just(0),
        st.just(min(math.isqrt(x), R_CAP)),
        st.integers(0, R_CAP),
        st.builds(lambda m, e: m * CHUNK + e, st.integers(1, 2), st.integers(-1, 1)),
    ))
    return x, r


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(_row(), max_size=12), st.lists(_short_x.map(lambda x: (x, math.isqrt(x))),
                                               max_size=24))
def test_kernels_agree_with_python_floor_sums(rows, short_rows):
    # rows are paired by rank, so both x and r are non-increasing
    x = sorted((v for v, _ in rows + short_rows), reverse=True)
    r = sorted((w for _, w in rows + short_rows), reverse=True)
    xa, ra = np.array(x, dtype=np.int64), np.array(r, dtype=np.int64)
    assert floor_sum(xa, ra) == summatory._floor_sum_numpy(xa, ra) == _python_floor_sum(x, r)


# the /proc/cpuinfo flags of a CPU that runs code built for each x86-64 level
LEVEL_FLAGS = {
    "x86-64": set(),
    "x86-64-v2": {"cx16", "popcnt", "sse4_1", "sse4_2", "ssse3"},
    "x86-64-v3": {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe"},
    "x86-64-v4": {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}


def _cpu_flags():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {f for line in lines if line.startswith("flags") for f in line.split(":", 1)[1].split()}


@pytest.fixture(scope="module", params=list(LEVEL_FLAGS))
def one_clone(request, tmp_path_factory):
    """floor_sum.c built for one x86-64 target alone and loaded with ctypes.

    The resolver of the shipped library picks one clone for the CPU it runs
    on: x86-64-v4 where there is AVX-512, so x86-64-v3, x86-64-v2 and the
    baseline run only on other CPUs.  These builds run each clone here.  A
    target is skipped only where /proc/cpuinfo does not list the flags its
    code needs; a build that fails is an error.
    """
    compiler = next(filter(None, map(shutil.which, summatory._COMPILERS)), None)
    if compiler is None or platform.machine() != "x86_64":
        pytest.skip("needs a C compiler on x86-64")
    if not LEVEL_FLAGS[request.param] <= _cpu_flags():
        pytest.skip(f"this CPU does not run {request.param} code")
    tmp = tmp_path_factory.mktemp(request.param)
    source, lib = tmp / "one_clone.c", tmp / "one_clone.so"
    source.write_text('#define target_clones(...)\n#include "floor_sum.c"\n')
    subprocess.run([compiler, *summatory._CFLAGS, f"-march={request.param}",
                    f"-I{summatory._SOURCE.parent}", "-o", str(lib), str(source)],
                   capture_output=True, timeout=300, check=True)
    return summatory._open_kernel(lib)


def _first_block(n):
    """The rows of s_identity(n)'s first block of large terms, with r = isqrt(x)."""
    d0 = math.isqrt(n // (TABLE_CAP + 1)) + 1
    x = n // np.arange(1, min(d0, CHUNK + 1), dtype=np.int64) ** 2
    return x, summatory._isqrt(x)


def _edge_batch(rng):
    """A batch drawn like test_kernels_agree_with_python_floor_sums' rows: x
    near RECIP_X, 2^53 and MAX_X with r = 0, isqrt(x) or next to a multiple of
    CHUNK, capped at R_CAP, and short rows with r = isqrt(x)."""
    rows = []
    for _ in range(rng.randint(1, 6)):
        x = rng.choice([RECIP_X, 2**53, MAX_X - 1]) + rng.randint(-2, 1)
        rows.append((x, rng.choice([0, min(math.isqrt(x), R_CAP),
                                    rng.randint(1, 2) * CHUNK + rng.randint(-1, 1)])))
    for _ in range(rng.randint(0, 12)):
        x = rng.randint(0, SHORT_X)
        rows.append((x, math.isqrt(x)))
    # paired by rank, so both x and r are non-increasing
    return sorted((v for v, _ in rows), reverse=True), sorted((w for _, w in rows), reverse=True)


def test_every_clone_target_matches_python_floor_sums(monkeypatch, one_clone):
    blocks = {n: _first_block(n) for n in (10**12 + 39, 10**14)}
    shipped = {n: floor_sum(*block) for n, block in blocks.items()}
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: one_clone)
    rng = random.Random(1818)
    for _ in range(100):
        x, r = _edge_batch(rng)
        assert _floor_sum(x, r) == _python_floor_sum(x, r), (x, r)
    for x, r, expected in _four_row_batches():
        assert _floor_sum(x, r) == expected, (x, r)
    assert {n: floor_sum(*block) for n, block in blocks.items()} == shipped
