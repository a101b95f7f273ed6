import pytest
from mpmath import mp, mpf

from gcdsum import (
    Algorithm,
    ScanSpec,
    Spacing,
    default_constants,
    error_at,
    error_scan,
    main_term,
)
from gcdsum.constants import TRUSTED_DIGITS


def test_main_term_at_one_is_c0():
    k = default_constants()
    a = main_term(1)
    assert a == k.c0  # log(1) = 0 exactly
    assert -1.622 < float(a) < -1.620


def test_main_term_at_ten_against_independent_assembly():
    # rebuild A(10) from mpmath's own constants, none of our code
    with mp.workdps(40):
        z = mp.zeta(2)
        c0 = (2 * mp.euler - 1) * z + 2 * mp.zeta(2, derivative=1)
        ref = z * 10 * mp.log(10) + c0 * 10
    a = main_term(10)
    assert abs(a - ref) < mpf("1e-20")
    assert abs(float(a) - 21.66) < 0.01


def test_main_term_precision_contract():
    assert TRUSTED_DIGITS >= 18
    with mp.workdps(60):
        z = mp.zeta(2)
        c0 = (2 * mp.euler - 1) * z + 2 * mp.zeta(2, derivative=1)
        ref = z * 10**6 * mp.log(10**6) + c0 * 10**6
        assert abs(main_term(10**6) - ref) < abs(ref) * mpf(10) ** -18


def test_main_term_rejects_zero():
    with pytest.raises(ValueError):
        main_term(0)


def test_error_at_ten():
    rec = error_at(10, Algorithm.IDENTITY_SUMMATORY)
    assert rec.s_exact == 31
    assert abs(float(rec.normalized) - 2.9518802340634758) < 1e-9
    with mp.workdps(40):
        assert rec.error == mpf(31) - rec.a_main
        assert abs(rec.normalized * mp.sqrt(10) - rec.error) < mpf("1e-25")


def test_error_at_one_brute():
    k = default_constants()
    rec = error_at(1, Algorithm.BRUTE)
    assert rec.s_exact == 1
    assert rec.algorithm is Algorithm.BRUTE
    with mp.workdps(40):
        assert abs(rec.error - (1 - k.c0)) < mpf("1e-30")
    assert abs(float(rec.error) - 2.6210671532499509) < 1e-9


def test_error_at_1e6_regression():
    rec = error_at(10**6)
    assert rec.s_exact == 21107131
    assert abs(float(rec.normalized)) <= 10
    # pinned after the first verified run
    assert abs(float(rec.normalized) - 2.5941855531675213) < 1e-9
    assert rec.elapsed >= 0.0


def test_scan_spec_grid_shape():
    grid = ScanSpec(10, 10**6, 5).grid()
    assert len(grid) == 5
    assert grid[0] == 10 and grid[-1] == 10**6
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_scan_spec_linear_grid():
    assert ScanSpec(10, 50, 5, Spacing.LINEAR).grid() == [10, 20, 30, 40, 50]


def test_scan_spec_rejects_degenerate_ranges():
    with pytest.raises(ValueError):
        ScanSpec(100, 100, 2)
    with pytest.raises(ValueError):
        ScanSpec(100, 10, 3)
    with pytest.raises(ValueError):
        ScanSpec(0, 10, 3)
    with pytest.raises(ValueError):
        ScanSpec(10, 100, 1)
    # a non-integer count would otherwise fail only later, inside grid()
    with pytest.raises(TypeError, match="points"):
        ScanSpec(10, 100, 2.5)
    # a bare string or None would silently fall through to the linear grid
    for spacing in ("geometric", None):
        with pytest.raises(TypeError, match="Spacing"):
            ScanSpec(10, 10**6, 5, spacing)


def test_scan_dedupes_collisions():
    # 50 requested points over a tiny range collapse after rounding
    grid = ScanSpec(10, 20, 50).grid()
    assert grid == sorted(set(grid))
    assert grid[0] == 10 and grid[-1] == 20


def test_scan_records_ascending_and_deterministic():
    spec = ScanSpec(10**2, 10**5, 6)
    first = error_scan(spec)
    second = error_scan(spec)
    assert [r.n for r in first] == spec.grid()
    for a, b in zip(first, second):
        assert a.n == b.n
        assert a.s_exact == b.s_exact
        assert a.a_main == b.a_main
        assert a.error == b.error
        assert a.normalized == b.normalized
        assert a.algorithm == b.algorithm


def test_scan_cross_algorithm_agreement():
    spec = ScanSpec(10, 10**4, 4)
    via_identity = error_scan(spec, Algorithm.IDENTITY_SUMMATORY)
    via_brute = error_scan(spec, Algorithm.BRUTE)
    for a, b in zip(via_identity, via_brute):
        assert a.s_exact == b.s_exact


def test_scan_error_names_the_failing_point():
    spec = ScanSpec(2 * 10**7, 3 * 10**7, 2)
    with pytest.raises(ValueError, match="N=20000000"):
        error_scan(spec, Algorithm.BRUTE)
