"""Main-term evaluation and empirical scans of the error E(N) = S(N) - A(N).

The main term is A(N) = c1*N*log(N) + c0*N with the natural logarithm
(the constants are tied to log base e; nothing here is log10).  E(N) is
always formed as exact integer minus high-precision real: at N = 10^12
the error is ~1e-8 of the main term, which a double-only subtraction
would destroy.
"""

import enum
import math
import time
from dataclasses import dataclass

from mpmath import mpf

from .arith import check_natural
from .constants import _CTX, default_constants
from .gcd_sum import Algorithm, s_exact


class Spacing(enum.Enum):
    GEOMETRIC = "geometric"
    LINEAR = "linear"


@dataclass(frozen=True)
class ScanSpec:
    """Grid of scan points between n_min and n_max inclusive."""

    n_min: int
    n_max: int
    points: int
    spacing: Spacing = Spacing.GEOMETRIC

    def __post_init__(self):
        check_natural(self.n_min, "n_min")
        check_natural(self.n_max, "n_max")
        if self.n_min < 1 or self.n_min >= self.n_max:
            raise ValueError(
                f"degenerate scan range: need 1 <= n_min < n_max, "
                f"got [{self.n_min}, {self.n_max}]"
            )
        check_natural(self.points, "points")
        if self.points < 2:
            raise ValueError(f"scan needs at least 2 points, got {self.points}")
        if not isinstance(self.spacing, Spacing):
            raise TypeError(f"spacing must be a Spacing, got {self.spacing!r}")

    def grid(self) -> list[int]:
        """Strictly increasing integers; endpoints always included.

        Interpolates in log space (geometric) or linearly, rounds, and
        deduplicates, so the result may hold fewer than `points` values.
        """
        steps = self.points - 1
        if self.spacing is Spacing.GEOMETRIC:
            lo, hi = math.log(self.n_min), math.log(self.n_max)
            raw = (math.exp(lo + (hi - lo) * i / steps) for i in range(self.points))
        else:
            span = self.n_max - self.n_min
            raw = (self.n_min + span * i / steps for i in range(self.points))
        values = {int(round(v)) for v in raw}
        values.update((self.n_min, self.n_max))
        return sorted(v for v in values if self.n_min <= v <= self.n_max)


@dataclass(frozen=True)
class ErrorRecord:
    """One evidence row: exact S(N), main term A(N), E = S - A, E/sqrt(N)."""

    n: int
    s_exact: int
    a_main: mpf
    error: mpf
    normalized: mpf
    algorithm: Algorithm
    elapsed: float


def main_term(n: int) -> mpf:
    """A(N) = c1*N*log(N) + c0*N at working precision (natural log)."""
    check_natural(n)
    if n < 1:
        raise ValueError("main_term requires N >= 1")
    k = default_constants()
    return k.c1 * n * _CTX.log(n) + k.c0 * n


def error_at(n: int, algorithm: Algorithm = Algorithm.IDENTITY_SUMMATORY) -> ErrorRecord:
    """Evaluate S(N) exactly, subtract the main term, and record the row."""
    start = time.perf_counter()
    s = s_exact(n, algorithm)
    elapsed = time.perf_counter() - start
    a = main_term(n)
    error = s - a
    normalized = error / _CTX.sqrt(n)
    return ErrorRecord(n=n, s_exact=s, a_main=a, error=error,
                       normalized=normalized, algorithm=algorithm, elapsed=elapsed)


def error_scan(spec: ScanSpec,
               algorithm: Algorithm = Algorithm.IDENTITY_SUMMATORY) -> list[ErrorRecord]:
    """One ErrorRecord per grid point, ascending in N.

    Deterministic apart from the elapsed field.  A failure at any grid
    point is re-raised with the offending N named.
    """
    records = []
    for n in spec.grid():
        try:
            records.append(error_at(n, algorithm))
        except (ValueError, OverflowError) as exc:
            raise type(exc)(f"scan point N={n}: {exc}") from exc
    return records
