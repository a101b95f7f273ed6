"""Command-line interface.

    gcdsum exact <N> [--alg brute|lemma1|identity]
    gcdsum predict <N>
    gcdsum constants [--digits D]
    gcdsum scan --from <N> --to <N> --points <K> [--linear] --out <csv>
                [--svg <path>] [--alg ...]
    gcdsum verify --max <N>

Exit status is 0 on success, 1 on any runtime error or verification
failure, 2 on bad flags.  Errors print a one-line diagnostic to stderr.
"""

import argparse
import sys
import time

from .arith import check_sieve_limit
from .asymptotics import ScanSpec, Spacing, error_scan, main_term
from .constants import _CTX, TRUSTED_DIGITS, default_constants
from .gcd_sum import Algorithm, s_exact, s_upto
from .report import write_csv, write_svg

_ALGORITHMS = {a.value: a for a in Algorithm}


def _cmd_exact(args) -> int:
    algorithm = _ALGORITHMS[args.alg]
    start = time.perf_counter()
    value = s_exact(args.n, algorithm)
    elapsed = time.perf_counter() - start
    print(f"S({args.n}) = {value}")
    print(f"algorithm: {algorithm.value}   time: {elapsed:.3f}s")
    return 0


def _cmd_predict(args) -> int:
    k = default_constants()
    a = main_term(args.n)
    nlogn_piece = a - k.c0 * args.n
    print(f"A({args.n}) = {float(a):.15g}")
    print(f"  c1*N*log(N) = {float(nlogn_piece):.15g}")
    print(f"  c0*N        = {float(k.c0 * args.n):.15g}")
    return 0


def _cmd_constants(args) -> int:
    if not 1 <= args.digits <= TRUSTED_DIGITS:
        raise ValueError(f"--digits must be in [1, {TRUSTED_DIGITS}], got {args.digits}")
    k = default_constants()
    for name, value in (("zeta2", k.zeta2), ("gamma", k.gamma), ("theta", k.theta),
                        ("c1", k.c1), ("c0", k.c0)):
        print(f"{name:<5} = {_CTX.nstr(value, args.digits)}   (trusted digits: {TRUSTED_DIGITS})")
    return 0


def _cmd_scan(args) -> int:
    spacing = Spacing.LINEAR if args.linear else Spacing.GEOMETRIC
    spec = ScanSpec(n_min=args.n_min, n_max=args.n_max, points=args.points,
                    spacing=spacing)
    records = error_scan(spec, _ALGORITHMS[args.alg])
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.svg:
        write_svg(records, args.svg)
        print(f"wrote scatter plot to {args.svg}")
    worst = max(abs(float(r.normalized)) for r in records)
    print(f"max |E(N)| / sqrt(N) = {worst:.6g}")
    return 0


def _cmd_verify(args) -> int:
    check_sieve_limit(args.max, "--max")
    oracle = s_upto(args.max)
    agree = 0
    for n in range(1, args.max + 1):
        o = int(oracle[n])
        l = s_exact(n, Algorithm.LEMMA1_LATTICE)
        i = s_exact(n, Algorithm.IDENTITY_SUMMATORY)
        if o == l == i:
            agree += 1
        else:
            print(f"MISMATCH at N={n}: oracle={o} lemma1={l} identity={i}",
                  file=sys.stderr)
    print(f"3-way agreement: {agree}/{args.max}")
    return 0 if agree == args.max else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdsum",
        description="Exact divisor-gcd sums S(N) and their asymptotic error term.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="compute S(N) exactly")
    p.add_argument("n", type=int)
    p.add_argument("--alg", choices=sorted(_ALGORITHMS), default="identity")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("predict", help="evaluate the asymptotic main term A(N)")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("constants", help="print the main-term constants")
    p.add_argument("--digits", type=int, default=25)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("scan", help="scan the normalized error over a grid of N")
    p.add_argument("--from", dest="n_min", type=int, default=10**3)
    p.add_argument("--to", dest="n_max", type=int, default=10**9)
    p.add_argument("--points", type=int, default=13)
    p.add_argument("--linear", action="store_true",
                   help="linear grid spacing (default geometric)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", help="optional SVG scatter output path")
    p.add_argument("--alg", choices=sorted(_ALGORITHMS), default="identity")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="check 3-way algorithm agreement for N <= max")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit status instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the diagnostic
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OverflowError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
