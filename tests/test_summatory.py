import random

import mpmath
import numpy as np
import pytest

from gcdsum import divisor_summatory, lattice_count, sieve_tau
from gcdsum.arith import MAX_NATURAL
from gcdsum.summatory import CHUNK, MAX_X, floor_sum
from oracles import lattice_by_enumeration, tau_by_enumeration


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


def test_max_x_is_the_largest_x_whose_bound_fits():
    ctx = mpmath.MPContext()
    ctx.dps = 60

    def bound(x):
        return x * (1 + ctx.log(x))

    assert bound(MAX_X) <= MAX_NATURAL < bound(MAX_X + 1)
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
        assert floor_sum(x, r) == sum(x // k for k in range(1, r + 1))


def test_floor_sum_across_chunk_boundaries():
    x = 10**12
    for r in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        assert floor_sum(x, r) == sum(x // k for k in range(1, r + 1))


def test_divisor_summatory_returns_python_int():
    value = divisor_summatory(10**10)
    assert type(value) is int
    assert value == lattice_count(10**10)
