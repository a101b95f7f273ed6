import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gcdsum import divisor_summatory, lattice_count, sieve_tau, summatory
from gcdsum.arith import MAX_NATURAL
from gcdsum.summatory import (
    CHUNK,
    MAX_X,
    RECIP_X,
    TILE_X,
    divisor_summatory_batch,
    divisor_summatory_tiles,
    floor_sum,
)
from oracles import lattice_by_enumeration, tau_by_enumeration

# the float route takes every x below 2^53
FLOAT_TOP = 2**53 - 1


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


@pytest.mark.parametrize("x", [2**60, 2**62 + 12345, 2**63 - 1])
def test_floor_sum_chunks_cannot_wrap(x):
    # a few terms near 2^63 already overflow an int64 sum, so the chunks
    # must shrink to MAX_NATURAL // x terms
    for r in (1, 2, 7, 100):
        assert floor_sum([x], [r]) == [sum(x // k for k in range(1, r + 1))]


def test_floor_sum_across_chunk_boundaries():
    x = 10**12
    for r in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        assert floor_sum([x], [r]) == [sum(x // k for k in range(1, r + 1))]


def test_divisor_summatory_returns_python_int():
    value = divisor_summatory(10**10)
    assert type(value) is int
    assert value == lattice_count(10**10)


def test_float_quotients_floor_exactly_up_to_float_x():
    # x = k * floor(FLOAT_TOP / k) divides exactly; x - 1 puts x/k 1/k below
    # an integer, the closest a non-integer quotient gets to rounding up
    rng = np.random.default_rng(9009)
    k = np.concatenate([rng.integers(1, math.isqrt(FLOAT_TOP) + 1, 10**4),
                        rng.integers(1, FLOAT_TOP + 1, 10**4)])
    for x in (k * (FLOAT_TOP // k), k * (FLOAT_TOP // k) - 1):
        q = np.floor(np.divide(x.astype(np.float64), k.astype(np.float64)))
        assert np.array_equal(q.astype(np.int64), x // k)


def test_reciprocal_table_is_read_only():
    recip = summatory._RECIP
    assert recip.dtype == np.float64
    assert np.array_equal(recip, summatory._reciprocals(np.arange(1, CHUNK + 1, dtype=np.float64)))
    with pytest.raises(ValueError):
        recip[0] = 2.0


# e bounds the relative excess of fl(x * r_k) over x/k: three roundings of at
# most 2^-53 each, and the bump of 2^-50
EXCESS = (1 + Fraction(1, 2**53)) ** 3 * (1 + Fraction(1, 2**50)) - 1


def test_recip_x_is_the_largest_x_whose_excess_stays_below_one():
    assert RECIP_X * EXCESS < 1 <= (RECIP_X + 1) * EXCESS
    # the tiles multiply, and the d >= 2 rows of N = 10^15 too, but not d = 1
    assert TILE_X < 10**15 // 4 < RECIP_X < 10**15


def test_reciprocals_are_bumped_above_one_over_k():
    # every k of the table, and chunks of k sampled up to isqrt(RECIP_X)
    rng = np.random.default_rng(5150)
    top = math.isqrt(RECIP_X)
    starts = [*rng.integers(CHUNK, top - CHUNK, 3).tolist(), top - CHUNK + 1]
    ks = [np.arange(1, CHUNK + 1, dtype=np.float64)]
    ks += [np.arange(lo, lo + CHUNK, dtype=np.float64) for lo in starts]
    floor = 1 + Fraction(1, 2**51)
    for k in ks:
        recip = summatory._reciprocals(k)
        for kk, rk in zip(k.tolist(), recip.tolist()):
            assert Fraction(rk) * int(kk) >= floor, kk


def test_reciprocal_products_floor_exactly_below_recip_x():
    # x = k * floor(X / k) divides exactly and x - 1 puts x/k 1/k below an
    # integer, the closest a non-integer quotient gets to rounding up
    top = RECIP_X - 1
    rng = np.random.default_rng(8128)
    k = np.concatenate([rng.integers(1, math.isqrt(top) + 1, 10**4),
                        rng.integers(1, top + 1, 10**4)])
    recip = summatory._reciprocals(k.astype(np.float64))
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
        assert floor_sum([x], [r]) == [prefix[r]]
        assert floor_sum([x, x], [r, r]) == [prefix[r]] * 2


@pytest.mark.parametrize("x", [MAX_X, MAX_X - 1, 2**62, FLOAT_TOP, 10**15])
def test_int_chunks_grow_geometrically_without_wrapping(x):
    # a piece [a, b) of the first chunk has b - a <= a * (B // x), with B = 2^53
    # on the float route and MAX_NATURAL on the int64 one, and the later
    # pieces are whole chunks of CHUNK terms; at FLOAT_TOP, B // x = 1 and the
    # float pieces double from one term
    per_a = (2**53 if x <= FLOAT_TOP else MAX_NATURAL) // x
    r_max = 10**5
    prefix = _prefix_sums(x, r_max)
    edges, a = [], 1
    while a <= r_max:
        a = min(a + a * per_a, CHUNK + 1) if a <= CHUNK else a + CHUNK
        edges.append(a)
    for r in {e + step for e in edges for step in (-1, 0, 1)}:
        if r <= r_max:
            assert floor_sum([x], [r]) == [prefix[r]]


def test_divisor_summatory_at_max_x_in_bounded_time(deadline):
    # the value agrees with lattice_count(MAX_X) and with flat int64 chunks of
    # MAX_NATURAL // x = 40 terms; on a 2-core Xeon those take about 40 s and
    # geometric chunks about 2.3 s
    with deadline(30.0):
        assert divisor_summatory(MAX_X) == 9032947277897432256


def test_divisor_summatory_across_the_float_route_limit():
    # FLOAT_TOP takes the float route and 2^53 the int64 one; the value at
    # FLOAT_TOP is lattice_count(FLOAT_TOP), frozen here because it takes
    # tens of seconds, and D gains tau(2^53) = 54 from 2^53 - 1 to 2^53
    assert divisor_summatory(FLOAT_TOP) == 332286676471485609
    assert divisor_summatory(2**53) - divisor_summatory(FLOAT_TOP) == 54


def _tile_rows(hi, lo, rows, seed):
    """rows seeded x in [lo, hi], sorted non-increasing, with both ends included."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[hi, lo], rng.integers(lo, hi + 1, rows - 2)])
    return np.sort(x)[::-1].astype(np.int64)


@pytest.mark.parametrize("x", [
    # r = 1: one full tile of CHUNK rows, then a last tile of 5 rows
    _tile_rows(3, 1, CHUNK + 5, 1),
    # r = CHUNK - 1 and r = CHUNK: one-row tiles, of CHUNK entries for r = CHUNK
    _tile_rows(CHUNK * CHUNK - 1, (CHUNK - 1) ** 2, 3, 2),
    _tile_rows(TILE_X - 1, CHUNK * CHUNK, 3, 3),
    np.array([TILE_X - 1, CHUNK * CHUNK, CHUNK * CHUNK - 1], dtype=np.int64),
    # r = 128 on every row: 128 rows fill a tile of exactly CHUNK entries
    _tile_rows(129 * 129 - 1, 128 * 128, 128, 4),
    _tile_rows(129 * 129 - 1, 128 * 128, 300, 5),
    # ragged tiles: the rows of s_identity(10^12) and of a steeper range
    np.array([10**12 // (d * d) for d in range(62, 2763)], dtype=np.int64),
    np.array([10**8 // (d * d) for d in range(1, 60)], dtype=np.int64),
    _tile_rows(TILE_X - 1, 1, 500, 6),
], ids=["r1", "r_chunk_minus_1", "r_chunk", "r_chunk_edges", "full_tile", "r128",
        "rows_of_1e12", "rows_of_1e8", "mixed"])
def test_tiles_match_per_call_divisor_summatory(x):
    assert divisor_summatory_tiles(x) == sum(divisor_summatory(v) for v in x.tolist())


def test_float_sqrt_is_isqrt_below_tile_x():
    # the tiles take r = floor(sqrt(x)) in float64; check it at every square edge
    k = np.arange(1, CHUNK + 2, dtype=np.int64)
    x = np.concatenate([k * k - 1, k * k, k * k + 1])
    x = x[x < TILE_X]
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    assert r.tolist() == [math.isqrt(v) for v in x.tolist()]


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
    assert floor_sum(x, r) == [sum(v // k for k in range(1, w + 1)) for v, w in zip(x, r)]


def test_divisor_summatory_batch_matches_each_row():
    rng = np.random.default_rng(4242)
    x = [RECIP_X + 1, RECIP_X, RECIP_X - 1, *_batch(rng, (10**12, 10**8, TILE_X, 10), 3)]
    assert divisor_summatory_batch(x) == sum(divisor_summatory(v) for v in x)
    assert divisor_summatory_batch([]) == 0
    assert divisor_summatory_batch([10**9]) == lattice_count(10**9)
