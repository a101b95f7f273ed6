"""Results neither read nor write the global mpmath context `mpmath.mp`."""

import sys
import threading

from mpmath import mp

from gcdsum import default_constants, error_at, euler_gamma, main_term, theta
from gcdsum.cli import run

THREADS = 4
CALLS = 400
ROUNDS = 5


def test_no_mpmath_context_is_written(monkeypatch, capsys):
    # every MPContext shares these properties, the package's own included
    writes = []
    for name in ("prec", "dps"):
        prop = getattr(type(mp), name)

        def record(ctx, value, prop=prop, name=name):
            writes.append((name, "mpmath.mp" if ctx is mp else "other context", value))
            prop.fset(ctx, value)

        monkeypatch.setattr(type(mp), name, property(prop.fget, record))
    euler_gamma.__wrapped__()
    theta.__wrapped__()
    default_constants.__wrapped__()
    main_term(10**12)
    error_at(10**6)
    assert run(["constants"]) == 0
    assert run(["predict", "1000"]) == 0
    assert writes == []


def _stress(n, expected):
    results = [[] for _ in range(THREADS)]
    start = threading.Barrier(THREADS)

    def work(out):
        start.wait(timeout=60)
        for _ in range(CALLS):
            out.append(main_term(n))

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert [len(out) for out in results] == [CALLS] * THREADS
    wrong = sum(v != expected for out in results for v in out)
    assert wrong == 0, f"{wrong} of {THREADS * CALLS} values differ"


def test_main_term_is_bit_identical_under_thread_switching():
    n = 10**12
    expected = main_term(n)
    with mp.workdps(5):
        assert main_term(n) == expected
    dps = mp.dps
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a race that corrupts the global context tends to leave it
        # corrupted, so each round is a fresh chance to catch one
        for _ in range(ROUNDS):
            _stress(n, expected)
            assert mp.dps == dps
    finally:
        sys.setswitchinterval(interval)
