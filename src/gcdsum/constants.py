"""High-precision constants for the asymptotic main term c1*N*log(N) + c0*N.

The bundle is

    c1 = zeta(2) = pi^2 / 6
    c0 = (2*gamma - 1) * zeta(2) - 2 * theta,

with gamma the Euler-Mascheroni constant and theta = sum_{d>=1} log(d)/d^2.
Everything is evaluated in one module-private mpmath context fixed at
WORKING_DPS digits and returned as a plain mpf of that context, trusted to
TRUSTED_DIGITS significant digits.  The context is set up once at import
and never written afterwards, so no result depends on the global
`mpmath.mp` or on thread scheduling.

gamma and theta are computed here by Euler-Maclaurin summation rather than
taken from a table.  For f(x) = log(x)^a / x^s the tail past m is

    sum_{n>m} f(n) = integral_m^inf f - f(m)/2
                     - sum_{j>=1} B_{2j}/(2j)! * f^(2j-1)(m),

and _em_correction(m, a, s) returns everything after the integral.  Every
derivative has the closed form f^(k)(x) = (alpha_k * log x + beta_k) / x^(k+s)
with integer coefficients obeying

    alpha_{k+1} = -(k + s) * alpha_k,
    beta_{k+1}  = alpha_k - (k + s) * beta_k,

from (alpha_0, beta_0) = (a, 1 - a), so the correction terms cost nothing
to generate exactly.  With M = 100:

* gamma = H_M - log M + _em_correction(M, 0, 1), for f(x) = 1/x;
* theta = sum_{d<=M} log(d)/d^2 + log_tail(M), where for f(x) = log(x)/x^2
  log_tail(M) = (log M + 1)/M + _em_correction(M, 1, 2).

Correction terms are added until the first omitted one falls below 1e-36;
near that size the j-th term is about (2j)! / (2*pi*M)^(2j), so at M = 100
that takes 9 terms for each of gamma and theta, and both come out within
1e-38.  A longer head would cost more and add no digit.  The series are
asymptotic, not convergent: for small m the terms eventually grow, so
log_tail(m) first sums directly up to max(m, 100) and only then switches
to Euler-Maclaurin.

mpmath's own `euler` and `zeta(2, derivative=1)` never appear here; the
test suite uses them as independent references for exactly that reason.
"""

import functools
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .arith import check_natural

WORKING_DPS = 40

# Trusted significant digits of every value below: the Euler-Maclaurin
# truncation stop leaves ~36 digits and WORKING_DPS = 40 gives margin.
TRUSTED_DIGITS = 30

# All arithmetic on the values below (mpf operators included) runs at this
# context's precision.  Nothing may change it after this line.
_CTX = mpmath.MPContext()
_CTX.dps = WORKING_DPS

_EM_STOP = 1e-36
_EM_M = 100


def zeta2() -> mpf:
    """zeta(2) = pi^2 / 6, from mpmath's pi at working precision."""
    return _CTX.pi**2 / 6


def _em_correction(m: int, a: int, s: int) -> mpf:
    """-f(m)/2 - sum_j B_{2j}/(2j)! * f^(2j-1)(m) for f(x) = log(x)^a / x^s.

    Terms are added until the first omitted one is below 1e-36 or no
    smaller than the one before (the series is asymptotic).
    """
    lg = _CTX.log(m)
    alpha, beta = a, 1 - a  # f^(k)(x) = (alpha*log x + beta) / x^(k+s), exact ints
    total = -(alpha * lg + beta) / (2 * _CTX.mpf(m) ** s)
    order = 0
    j, prev = 1, _CTX.inf
    while True:
        while order < 2 * j - 1:
            alpha, beta = -(order + s) * alpha, alpha - (order + s) * beta
            order += 1
        derivative = (alpha * lg + beta) / _CTX.mpf(m) ** (order + s)
        term = _CTX.bernoulli(2 * j) / _CTX.factorial(2 * j) * derivative
        if abs(term) < _EM_STOP or abs(term) >= prev:
            break
        total -= term
        prev = abs(term)
        j += 1
    return total


@functools.cache
def euler_gamma() -> mpf:
    """Euler-Mascheroni constant: H_M - log M + Euler-Maclaurin correction at M = 100."""
    harmonic = _CTX.fsum(_CTX.mpf(1) / k for k in range(1, _EM_M + 1))
    return harmonic - _CTX.log(_EM_M) + _em_correction(_EM_M, 0, 1)


@functools.cache
def theta() -> mpf:
    """sum_{d>=1} log(d)/d^2: direct head up to M = 100 plus Euler-Maclaurin tail."""
    head = _CTX.fsum(_CTX.log(d) / (d * d) for d in range(2, _EM_M + 1))
    return head + log_tail(_EM_M)


def log_tail(m: int) -> mpf:
    """sum_{d>m} log(d)/d^2.

    Sums directly up to m0 = max(m, 100), then adds the integral
    (log m0 + 1)/m0 and the Euler-Maclaurin correction for
    f(x) = log(x)/x^2 (see the module docstring).
    """
    check_natural(m, "m")
    if m < 2:
        raise ValueError("log_tail needs m >= 2")
    m0 = max(m, _EM_M)
    value = _CTX.mpf(0)
    if m0 > m:
        value = _CTX.fsum(_CTX.log(d) / (d * d) for d in range(m + 1, m0 + 1))
    return value + (_CTX.log(m0) + 1) / m0 + _em_correction(m0, 1, 2)


@dataclass(frozen=True)
class AsymptoticConstants:
    """The constants zeta2, gamma, theta and the main-term coefficients they give.

    c1 = zeta2 and c0 = (2*gamma - 1)*zeta2 - 2*theta are derived, so they
    cannot disagree with the constants.
    """

    zeta2: mpf
    gamma: mpf
    theta: mpf

    @property
    def c1(self) -> mpf:
        return self.zeta2

    @functools.cached_property
    def c0(self) -> mpf:
        """Computed on first read; threads that race there store equal values."""
        return (2 * self.gamma - 1) * self.zeta2 - 2 * self.theta


@functools.cache
def default_constants() -> AsymptoticConstants:
    """Compute the bundle once and share it (immutable, thread-safe)."""
    return AsymptoticConstants(zeta2=zeta2(), gamma=euler_gamma(), theta=theta())
