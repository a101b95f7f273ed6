"""Exact divisor-gcd sums S(N) = sum_{a*b<=N} tau(gcd(a, b)).

Three independent exact evaluators, high-precision constants for the
asymptotic main term zeta(2)*N*log(N) + ((2*gamma - 1)*zeta(2) - 2*theta)*N,
and scan tooling that exhibits the O(sqrt(N)) error empirically.
"""

from .arith import isqrt, sieve_tau
from .asymptotics import (
    ErrorRecord,
    ScanSpec,
    Spacing,
    error_at,
    error_scan,
    main_term,
)
from .constants import (
    AsymptoticConstants,
    default_constants,
    euler_gamma,
    log_tail,
    theta,
    zeta2,
)
from .gcd_sum import Algorithm, s_brute, s_exact, s_identity, s_lemma1
from .report import write_csv, write_svg
from .summatory import divisor_summatory, lattice_count

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AsymptoticConstants",
    "ErrorRecord",
    "ScanSpec",
    "Spacing",
    "default_constants",
    "divisor_summatory",
    "error_at",
    "error_scan",
    "euler_gamma",
    "isqrt",
    "lattice_count",
    "log_tail",
    "main_term",
    "s_brute",
    "s_exact",
    "s_identity",
    "s_lemma1",
    "sieve_tau",
    "theta",
    "write_csv",
    "write_svg",
    "zeta2",
]
