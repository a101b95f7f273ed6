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
taken from a table:

* gamma:  H_M = log M + gamma + 1/(2M) - sum_{j>=1} B_{2j} / (2j * M^{2j}),
  so gamma = H_M - log M - 1/(2M) + corrections.

* theta:  direct summation of log(d)/d^2 up to M, plus the tail

      log_tail(M) = (log M + 1)/M - log M/(2 M^2)
                    - sum_{j>=1} B_{2j}/(2j)! * f^(2j-1)(M),

  where f(x) = log(x)/x^2.  Every derivative of f has the closed form
  f^(k)(x) = (alpha_k * log x + beta_k) / x^(k+2) with integer
  coefficients obeying

      alpha_{k+1} = -(k + 2) * alpha_k,
      beta_{k+1}  = alpha_k - (k + 2) * beta_k,

  starting from (alpha_0, beta_0) = (1, 0), so the correction terms cost
  nothing to generate exactly.

Both sums use the fixed cutoff M = 100.  Correction terms are added
until the first omitted one falls below 1e-36; near that size the j-th
term is about (2j)! / (2*pi*M)^(2j), so at M = 100 that takes 9 terms
for each of gamma and theta, and both come out within 1e-38.  A longer
head would cost more and add no digit.  The series are asymptotic, not
convergent: for small M the terms eventually grow, so log_tail(m) first
sums directly up to max(m, 100) and only then switches to
Euler-Maclaurin.

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


@functools.cache
def euler_gamma() -> mpf:
    """Euler-Mascheroni constant by Euler-Maclaurin at the cutoff M = 100.

    gamma = sum_{k<=M} 1/k - log M - 1/(2M) + sum_j B_{2j}/(2j * M^{2j}),
    Bernoulli corrections included until the first omitted term is below
    1e-36 (nine terms).
    """
    m = _EM_M
    one = _CTX.mpf(1)
    value = _CTX.fsum(one / k for k in range(1, m + 1))
    value -= _CTX.log(m) + one / (2 * m)
    j, prev = 1, _CTX.inf
    while True:
        term = _CTX.bernoulli(2 * j) / (2 * j * _CTX.mpf(m) ** (2 * j))
        if abs(term) < _EM_STOP or abs(term) >= prev:
            break
        value += term
        prev = abs(term)
        j += 1
    return value


@functools.cache
def theta() -> mpf:
    """sum_{d>=1} log(d)/d^2: direct head up to M = 100 plus Euler-Maclaurin tail."""
    head = _CTX.fsum(_CTX.log(d) / (d * d) for d in range(2, _EM_M + 1))
    return head + log_tail(_EM_M)


def log_tail(m: int) -> mpf:
    """sum_{d>m} log(d)/d^2.

    Sums directly up to max(m, 100), then applies Euler-Maclaurin with
    the exact derivative recurrence for f(x) = log(x)/x^2 (see the module
    docstring).  Leading behavior is (log m + 1)/m - log m/(2 m^2).
    """
    check_natural(m, "m")
    if m < 2:
        raise ValueError("log_tail needs m >= 2")
    m0 = max(m, _EM_M)
    value = _CTX.mpf(0)
    if m0 > m:
        value = _CTX.fsum(_CTX.log(d) / (d * d) for d in range(m + 1, m0 + 1))
    return value + _log_tail_euler_maclaurin(m0)


def _log_tail_euler_maclaurin(m: int) -> mpf:
    """Tail of log(d)/d^2 past m by Euler-Maclaurin."""
    lg = _CTX.log(m)
    total = (lg + 1) / m - lg / (2 * _CTX.mpf(m) ** 2)
    alpha, beta = 1, 0  # f^(k)(x) = (alpha*log x + beta) / x^(k+2), exact ints
    order = 0
    j, prev = 1, _CTX.inf
    while True:
        while order < 2 * j - 1:
            alpha, beta = -(order + 2) * alpha, alpha - (order + 2) * beta
            order += 1
        derivative = (alpha * lg + beta) / _CTX.mpf(m) ** (order + 2)
        term = _CTX.bernoulli(2 * j) / _CTX.factorial(2 * j) * derivative
        if abs(term) < _EM_STOP or abs(term) >= prev:
            break
        total -= term
        prev = abs(term)
        j += 1
    return total


@dataclass(frozen=True)
class AsymptoticConstants:
    """The constant bundle (zeta2, gamma, theta, c1, c0) for the main term.

    c1 = zeta2 by construction; c0 = (2*gamma - 1)*zeta2 - 2*theta is
    recomputed and checked on construction.
    """

    zeta2: mpf
    gamma: mpf
    theta: mpf
    c1: mpf
    c0: mpf

    def __post_init__(self):
        if self.c1 != self.zeta2:
            raise ValueError("c1 must equal zeta2 exactly")
        rebuilt = (2 * self.gamma - 1) * self.zeta2 - 2 * self.theta
        if abs(rebuilt - self.c0) > _CTX.mpf(10) ** (-TRUSTED_DIGITS):
            raise ValueError("c0 does not match (2*gamma - 1)*zeta2 - 2*theta")


@functools.cache
def default_constants() -> AsymptoticConstants:
    """Compute the bundle once and share it (immutable, thread-safe)."""
    z = zeta2()
    g = euler_gamma()
    t = theta()
    c0 = (2 * g - 1) * z - 2 * t
    return AsymptoticConstants(zeta2=z, gamma=g, theta=t, c1=z, c0=c0)
