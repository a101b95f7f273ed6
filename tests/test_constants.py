import math

import mpmath
import pytest
from mpmath import mp, mpf, nstr

from gcdsum import constants
from gcdsum import (
    AsymptoticConstants,
    default_constants,
    euler_gamma,
    log_tail,
    theta,
    zeta2,
)
from gcdsum.constants import TRUSTED_DIGITS
from oracles import partial_zeta2

# Reference digits, frozen after cross-checking against mpmath's builtin
# euler constant and zeta derivative (independent of this package's
# Euler-Maclaurin code).
ZETA2_REF = "1.644934066848226436472415166646"
GAMMA_REF = "0.5772156649015328606065120900824"
THETA_REF = "0.9375482543158437537025740945679"


def _ref(s: str) -> mpf:
    with mp.workdps(40):
        return mpf(s)


# ---------------------------------------------------------------- zeta(2)

def test_zeta2_closed_form_digits():
    z = zeta2()
    assert nstr(z, 26) == "1.6449340668482264364724152"
    assert abs(z - _ref(ZETA2_REF)) < mpf("1e-29")
    assert TRUSTED_DIGITS >= 25


def test_zeta2_against_mpmath_zeta():
    with mp.workdps(40):
        ref = mp.zeta(2)
    assert abs(zeta2() - ref) < mpf("1e-35")


def test_zeta2_against_partial_sum_tail():
    # tail of 1/d^2 past M is 1/M - 1/(2M^2) + O(1/M^3)
    m = 10**6
    with mp.workdps(40):
        approx = partial_zeta2(m) + mpf(1) / m - mpf(1) / (2 * m * m)
        assert abs(zeta2() - approx) < mpf("1e-17")


# ------------------------------------------------------------------ gamma

def test_gamma_digits():
    g = euler_gamma()
    assert nstr(g, 25) == "0.5772156649015328606065121"
    assert abs(g - _ref(GAMMA_REF)) < mpf("1e-28")
    assert TRUSTED_DIGITS >= 25
    assert 0.577 < float(g) < 0.578


def test_gamma_against_mpmath_reference():
    with mp.workdps(40):
        ref = +mp.euler
    assert abs(euler_gamma() - ref) < mpf("1e-28")


def test_two_gamma_minus_one():
    v = 2 * euler_gamma() - 1
    assert nstr(v, 25) == "0.1544313298030657212130242"


# ------------------------------------------------------------------ theta

def test_theta_digits():
    t = theta()
    assert abs(t - _ref(THETA_REF)) < mpf("1e-28")
    assert TRUSTED_DIGITS >= 25
    assert 0.93 < float(t) < 0.94


def test_theta_against_zeta_derivative():
    # independent reference: theta = -zeta'(2)
    with mp.workdps(40):
        ref = -mp.zeta(2, derivative=1)
    assert abs(theta() - ref) < mpf("1e-28")


def test_theta_sum_split_consistency():
    # head up to M plus tail past M reproduces theta for several M
    for m in (100, 1000, 10**4):
        with mp.workdps(40):
            head = mp.fsum(mp.log(d) / (d * d) for d in range(2, m + 1))
            total = head + log_tail(m)
        assert abs(total - theta()) < mpf("1e-15")


# ----------------------------------------------------------- partial sums

def test_partial_zeta2_single_term():
    assert partial_zeta2(1) == 1


def test_partial_zeta2_ten_terms():
    assert abs(partial_zeta2(10) - _ref("1.549767731166540690350214")) < mpf("1e-24")


def test_partial_zeta2_integral_bracket():
    z = zeta2()
    for m in (10, 100, 1000):
        gap = z - partial_zeta2(m)
        assert mpf(1) / (m + 1) < gap < mpf(1) / m


def test_partial_zeta2_rejects_zero():
    with pytest.raises(ValueError):
        partial_zeta2(0)


# --------------------------------------------------------------- log_tail

def test_log_tail_frozen_value():
    # cross-checked against -zeta'(2) minus the direct head sum
    assert abs(log_tail(1000) - _ref("0.007904302469301664999949214")) < mpf("1e-25")


def test_log_tail_against_zeta_derivative_oracle():
    # 60-digit references on both sides of the direct-sum / Euler-Maclaurin
    # switch at m = 100
    ctx = mpmath.MPContext()
    ctx.dps = 60
    theta_ref = -ctx.zeta(2, derivative=1)
    for m in (2, 3, 10, 99, 100, 101, 1000):
        ref = theta_ref - ctx.fsum(ctx.log(d) / (d * d) for d in range(2, m + 1))
        assert abs(ctx.mpf(log_tail(m)) - ref) < ctx.mpf("1e-35"), m


def test_log_tail_leading_terms():
    with mp.workdps(40):
        lead = (mp.log(1000) + 1) / 1000 - mp.log(1000) / (2 * 1000**2)
    assert abs(log_tail(1000) - lead) < mpf("1e-8")


def test_log_tail_sqrt_cutoff_behavior():
    # with M = sqrt(N) the tail is log(N)/(2 sqrt N) + 1/sqrt(N) + O(log N / N)
    for n in (10**4, 10**6, 10**8):
        m = math.isqrt(n)
        with mp.workdps(40):
            lead = mp.log(n) / (2 * mp.sqrt(n)) + 1 / mp.sqrt(n)
            diff = abs(log_tail(m) - lead)
            assert diff < mp.log(n) / n


def test_log_tail_upper_bound_at_1e6():
    assert log_tail(10**6) < mpf("1.5e-5")


def test_log_tail_integral_bracket():
    for m in (3, 10, 100, 1000, 10**4, 10**6):
        with mp.workdps(40):
            lower = (mp.log(m + 1) + 1) / (m + 1)
            upper = (mp.log(m) + 1) / m
        assert lower < log_tail(m) < upper


def test_log_tail_rejects_small_m():
    with pytest.raises(ValueError):
        log_tail(1)
    with pytest.raises(ValueError):
        log_tail(0)


# ------------------------------------------------------------- rendering

def test_hpr_digits_rendering():
    # values live at 40 digits whatever the global mpmath precision is
    a = 2 * constants._CTX.mpf(1) / 3
    assert nstr(a, 6) == "0.666667"
    assert nstr(a, TRUSTED_DIGITS) == "0.666666666666666666666666666667"


# --------------------------------------------------- constants assembly

def test_bundle_c0_value_and_invariants():
    k = default_constants()
    assert k.c1 == k.zeta2
    assert -1.622 < float(k.c0) < -1.620
    assert TRUSTED_DIGITS >= 25
    rebuilt = (2 * k.gamma - 1) * k.zeta2 - 2 * k.theta
    assert abs(rebuilt - k.c0) < mpf("1e-30")
    # c1 and c0 are derived from the three constants, never passed in
    again = AsymptoticConstants(zeta2=k.zeta2, gamma=k.gamma, theta=k.theta)
    assert again == k and again.c0 == k.c0


def test_bundle_against_60_digit_references():
    # mpmath's own euler and zeta'(2), in a context of our own at 60 digits
    ctx = mpmath.MPContext()
    ctx.dps = 60
    gamma, theta_ref = ctx.euler, -ctx.zeta(2, derivative=1)
    c0 = (2 * gamma - 1) * ctx.pi**2 / 6 - 2 * theta_ref
    k = default_constants()
    for value, ref in ((k.gamma, gamma), (k.theta, theta_ref), (k.c0, c0)):
        assert abs(ctx.mpf(value) - ref) < ctx.mpf("1e-35")


def test_theta_head_stays_short(monkeypatch):
    # theta sums log(d)/d^2 directly only up to the Euler-Maclaurin cutoff;
    # a head of 10^4 terms would make 10^4 log calls
    expected = theta()
    calls = []
    log = constants._CTX.log

    def counting(x):
        calls.append(x)
        return log(x)

    monkeypatch.setattr(constants._CTX, "log", counting)
    assert theta.__wrapped__() == expected
    assert len(calls) <= 200


def test_default_constants_is_cached():
    assert default_constants() is default_constants()
