"""One benchmark worker: a fresh, single-threaded Python process.

    python3 perfbench/worker.py '<json config>'

run.py starts several of these per run, one after another.  Each times its
own set-up (import gcdsum.cli, which imports the package, then
default_constants()), runs the workload's operations one at a time until its
time slice is spent, checks every result, and prints one JSON line of samples
as its last line of output.  With "trace" set, the second half of the slice
runs with the tracer installed, so the same process gives untraced and traced
operation times.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from tracer import OP_LAYERS, SETUP_LAYERS, Tracer

SCAN_HEADER = "N,S,A,E,E_over_sqrtN,alg,seconds"
MAX_NORMALIZED_ERROR = 10.0
MAX_ERRORS_KEPT = 5


def run_cli(gcdsum, argv):
    """One full CLI command in this process; returns (exit status, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = gcdsum.cli.run(argv)
    return status, out.getvalue()


def check_scan(csv_text: str, svg: bytes, refs: dict) -> tuple[bool, str]:
    """Check a scan CSV against the stored S(N) and the |E|/sqrt(N) <= 10 gate.

    Also returns a digest of the CSV without its seconds column plus the SVG,
    which must not change between repetitions.
    """
    lines = csv_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = (lines[:1] == [SCAN_HEADER]
          and [(int(r[0]), int(r[1])) for r in rows] == [(int(n), s) for n, s in refs.items()]
          and max(abs(float(r[4])) for r in rows) <= MAX_NORMALIZED_ERROR)
    canonical = "\n".join(line.rsplit(",", 1)[0] for line in lines).encode("ascii") + svg
    return ok, hashlib.sha256(canonical).hexdigest()


def make_op(gcdsum, workload: str, inputs: dict, refs: dict):
    """Return (op, check, state): op(i) does operation i, check(i, result) judges it."""
    state = {"digest": None}
    if workload == "exact_large":
        ns = inputs["n"]

        def op(i):
            return gcdsum.s_exact(ns[i % len(ns)])

        def check(i, value):
            return value == refs[str(ns[i % len(ns)])]

    elif workload == "scan_default":
        argv = inputs["argv"]
        csv_path = Path(argv[argv.index("--out") + 1])
        svg_path = Path(argv[argv.index("--svg") + 1])

        def op(i):
            return run_cli(gcdsum, argv)

        def check(i, result):
            try:
                ok, digest = check_scan(csv_path.read_text(encoding="ascii"),
                                        svg_path.read_bytes(), refs)
            finally:
                csv_path.unlink(missing_ok=True)
                svg_path.unlink(missing_ok=True)
            if state["digest"] is None:
                state["digest"] = digest
            return result[0] == 0 and ok and digest == state["digest"]

    elif workload == "verify_sweep":
        argv = inputs["argv"]
        m = argv[argv.index("--max") + 1]
        expected = f"3-way agreement: {m}/{m}"

        def op(i):
            return run_cli(gcdsum, argv)

        def check(i, result):
            return result[0] == 0 and expected in result[1].splitlines()

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return op, check, state


def measure(config: dict) -> dict:
    """Set up, run the workload, and return the samples.

    After the first operation the worker repeats the operation until
    config["slice_s"] seconds have passed or config["max_warm"] repeats are done.
    """
    src = Path(config["root"]) / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer()
    trace = config["trace"]

    t0 = perf_counter()
    import gcdsum.cli
    t1 = perf_counter()
    with tracer.installed(SETUP_LAYERS) if trace else contextlib.nullcontext():
        gcdsum.default_constants()
    t2 = perf_counter()
    if not Path(gcdsum.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported gcdsum from {gcdsum.__file__}, not from {src}")
    setup_layers = tracer.snapshot(SETUP_LAYERS) if trace else {}

    op, check, state = make_op(gcdsum, config["workload"], config["inputs"], config["refs"])
    tally = {"attempted": 0, "failed": 0, "errors": []}

    def one(i) -> float:
        start = perf_counter()
        try:
            result = op(i)
            elapsed = perf_counter() - start
            ok = check(i, result)
        except Exception:  # a failing operation is counted and the run goes on
            elapsed = perf_counter() - start
            ok = False
            if len(tally["errors"]) < MAX_ERRORS_KEPT:
                tally["errors"].append(traceback.format_exc(limit=3))
        tally["attempted"] += 1
        tally["failed"] += not ok
        return elapsed

    def keep_going(times, end, most) -> bool:
        # at least one sample, at most `most`, and none expected to end past `end`
        return not times or (len(times) < most and perf_counter() + times[-1] <= end)

    offset = config["offset"]
    most = config["max_warm"] // 2 if trace else config["max_warm"]
    start = perf_counter()
    end = start + config["slice_s"]
    first = one(offset)
    warm = []
    while keep_going(warm, (start + end) / 2 if trace else end, most):
        warm.append(one(offset + 1 + len(warm)))

    traced, layers, counts, spans = [], [], [], []
    if trace:
        with tracer.installed(OP_LAYERS):
            while keep_going(traced, end, most):
                tracer.reset()
                # traced operations restart at input 0 in every worker, so the
                # exact counts of the first one must agree across workers and runs
                traced.append(one(len(traced)))
                layers.append(tracer.snapshot(OP_LAYERS))
                counts.append(tracer.count_snapshot())
                if len(traced) == 1:
                    origin = tracer.spans[0][2] if tracer.spans else 0.0
                    spans = [(name, parent, round(a - origin, 7), round(b - origin, 7))
                             for name, parent, a, b in tracer.spans]

    import mpmath
    import numpy
    return {
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "setup_layers": setup_layers,
        "first_op_s": first,
        "warm": warm,
        "traced": traced,
        "layers": layers,
        "counts": counts,
        "spans": spans,
        "digest": state["digest"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
        **tally,
    }


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
