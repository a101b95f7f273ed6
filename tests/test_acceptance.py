"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
from mpmath import mp, mpf

from gcdsum import (
    ScanSpec,
    default_constants,
    divisor_summatory,
    error_scan,
    euler_gamma,
    lattice_count,
    log_tail,
    s_brute,
    s_identity,
    s_lemma1,
    sieve_tau,
    theta,
    zeta2,
)
from gcdsum.cli import run


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def test_criterion_1_three_way_agreement():
    with criterion(1, "three-way algorithm agreement"):
        for n in range(1, 2001):
            b, l, i = s_brute(n), s_lemma1(n), s_identity(n)
            assert b == l == i, f"disagreement at N={n}: {b} {l} {i}"
        rng = random.Random(20260810)
        for _ in range(50):
            n = rng.randrange(1, 10**6 + 1)
            b, l, i = s_brute(n), s_lemma1(n), s_identity(n)
            assert b == l == i, f"disagreement at N={n}: {b} {l} {i}"


def test_criterion_2_lattice_bijection():
    with criterion(2, "lattice count equals divisor summatory"):
        prefix = np.cumsum(sieve_tau(10**4))
        for m in range(1, 10**4 + 1):
            assert lattice_count(m) == divisor_summatory(m) == int(prefix[m])


def test_criterion_3_constants():
    with criterion(3, "high-precision constants"):
        z, g, t = zeta2(), euler_gamma(), theta()
        with mp.workdps(40):
            assert abs(z - mpf("1.644934066848226436472415166646")) < mpf("1e-29")
            assert abs(g - mpf("0.5772156649015328606065120900824")) < mpf("1e-28")
            assert abs(t - mpf("0.9375482543158437537025740945679")) < mpf("1e-28")
            # independent reference computation for theta = -zeta'(2)
            assert abs(t + mp.zeta(2, derivative=1)) < mpf("1e-25")
            # sum-split consistency at 1e-15
            for m in (100, 1000, 10**4):
                head = mp.fsum(mp.log(d) / (d * d) for d in range(2, m + 1))
                assert abs(head + log_tail(m) - t) < mpf("1e-15")
            # integral brackets on the tail
            for m in (3, 10, 100, 1000):
                lower = (mp.log(m + 1) + 1) / (m + 1)
                upper = (mp.log(m) + 1) / m
                assert lower < log_tail(m) < upper
        k = default_constants()
        assert -1.622 < float(k.c0) < -1.620


def test_criterion_4_error_term_evidence():
    with criterion(4, "error stays O(sqrt N) across 1e3..1e9"):
        records = error_scan(ScanSpec(10**3, 10**9, 13))
        assert len(records) == 13
        normalized = [abs(float(r.normalized)) for r in records]
        worst = max(normalized)
        assert worst <= 10.0
        # pinned after the first verified run
        assert abs(worst - 2.746450811876198) < 1e-6
        shaved = [abs(float(r.error)) / r.n**0.6 for r in records[-3:]]
        assert shaved[0] > shaved[1] > shaved[2]


def test_criterion_5_performance_at_1e12():
    with criterion(5, "s_identity(1e12) under 10 s, agrees with s_lemma1"):
        start = time.perf_counter()
        via_identity = s_identity(10**12)
        elapsed = time.perf_counter() - start
        assert via_identity == 43830142939380
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert s_lemma1(10**12) == via_identity


def test_criterion_6_deterministic_outputs(tmp_path, capsys):
    with criterion(6, "scan outputs are byte-identical across runs"):
        runs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            svg = tmp_path / f"{tag}.svg"
            assert run(["scan", "--out", str(csv), "--svg", str(svg)]) == 0
            runs.append((csv, svg))
        (csv_a, svg_a), (csv_b, svg_b) = runs
        # CSV: identical except the trailing elapsed column, checked structurally
        lines_a = csv_a.read_text().splitlines()
        lines_b = csv_b.read_text().splitlines()
        assert len(lines_a) == len(lines_b) == 14
        for la, lb in zip(lines_a, lines_b):
            assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]
        for line in lines_a[1:] + lines_b[1:]:
            assert float(line.rsplit(",", 1)[1]) >= 0.0
        # SVG carries no timing: full byte equality
        assert svg_a.read_bytes() == svg_b.read_bytes()
