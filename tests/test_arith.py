import math
import random

import numpy as np
import pytest

from gcdsum import sieve_tau
from gcdsum.arith import sieve_cap
from oracles import tau_by_enumeration
from oracles import tau_by_trial_division as tau


def test_tau_examples():
    assert tau(1) == 1
    assert tau(7) == 2
    assert tau(12) == 6
    assert tau(12) == tau_by_enumeration(12)


def test_tau_rejects_zero():
    with pytest.raises(ValueError):
        tau(0)


def test_tau_multiplicative_on_coprime_pairs():
    rng = random.Random(999)
    checked = 0
    while checked < 300:
        m = rng.randrange(2, 10**4)
        n = rng.randrange(2, 10**4)
        if math.gcd(m, n) != 1:
            continue
        assert tau(m * n) == tau(m) * tau(n)
        checked += 1


def test_sieve_limit_one():
    t = sieve_tau(1)
    assert len(t) - 1 == 1
    assert int(t[1]) == 1
    assert int(np.cumsum(t)[1]) == 1


def test_sieve_limit_five():
    t = sieve_tau(5)
    assert list(t[1:]) == [1, 2, 2, 3, 2]
    assert list(np.cumsum(t)[1:]) == [1, 3, 5, 8, 10]


def test_sieve_limit_hundred_against_tau():
    prefix = np.cumsum(sieve_tau(100))
    assert int(prefix[100]) == 482
    assert int(prefix[100]) == sum(tau(n) for n in range(1, 101))


def test_sieve_matches_trial_division_up_to_1e5():
    t = sieve_tau(10**5)
    assert all(tau(n) == int(t[n]) for n in range(1, 10**5 + 1))


def test_sieve_prefix_structure():
    t = sieve_tau(2000)
    prefix = np.cumsum(t)
    assert np.array_equal(prefix[1:] - prefix[:-1], t[1:])
    assert np.all(np.diff(prefix) >= 0)
    assert all(int(t[p]) == 2 for p in (2, 3, 5, 7, 1999))


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve_tau(0)


def test_sieve_cap_env_override(monkeypatch):
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "50")
    with pytest.raises(ValueError):
        sieve_tau(100)
    assert len(sieve_tau(50)) - 1 == 50
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "not-a-number")
    with pytest.raises(ValueError):
        sieve_tau(10)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_sieve_cap_below_one_is_refused(monkeypatch, raw):
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", raw)
    with pytest.raises(ValueError, match="GCDSUM_SIEVE_CAP"):
        sieve_cap()
    with pytest.raises(ValueError, match="GCDSUM_SIEVE_CAP"):
        sieve_tau(1)


def test_sieve_arrays_are_frozen():
    t = sieve_tau(10)
    with pytest.raises(ValueError):
        t[3] = 99
