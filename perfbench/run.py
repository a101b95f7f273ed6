"""gcdsum benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it benchmarks the package under
src/ and refuses to run without it.  A run starts fresh, single-threaded
Python worker processes one after another (closed loop, one operation at a
time, numpy/BLAS/OpenMP held to one thread) until S seconds have passed, and
at least MIN_WORKERS of them.  Each worker times its own set-up and first
operation, then repeats the operation for S / MIN_WORKERS seconds or
MAX_WARM times, whichever comes first, so cheap operations get more fresh
processes and hence more set-up and first-operation samples.  Every result
is checked against stored references (refs.json, rebuilt by make_refs.py).

Workloads (an operation is):
  exact_large   one s_exact(N) call, N drawn by the seed from a pool just
                above 10^12 whose members all cost the same;
  scan_default  one default `gcdsum scan --out --svg` command (13 points,
                10^3 .. 10^9);
  verify_sweep  one `gcdsum verify --max 2000` command.

--trace 0 prints the end-to-end metrics (medians over the workers' samples):
  setup_s       import gcdsum.cli plus default_constants() in a fresh process
  op_s          seconds per operation after the first
  first_op_s    seconds of the first operation in a process
  peak_rss_mb   ru_maxrss of a worker, in units of 1024 KiB
  ok_frac       operations that returned a checked-correct result / attempted
--trace 1 prints the per-layer metrics: time per operation (median over the
traced operations), exact counts of the first traced operation, set-up
pieces, and trace.overhead_s = traced op_s - untraced op_s, in one run.

The last line of output is the result JSON; the line before it names the
record file under perfbench/results/ that holds the seed, the generated
inputs, machine information and every raw sample.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracer import COUNT_METRICS, OP_LAYERS, SETUP_LAYERS, time_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_large", "scan_default", "verify_sweep")
MIN_WORKERS = 5
MAX_WARM = 10
RUN_LIMIT_S = 170
VERIFY_MAX = 2000
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {"setup_s": "s", "op_s": "s", "first_op_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}
OP_TIME_METRICS = time_metrics(OP_LAYERS)
PER_LAYER = (OP_TIME_METRICS + list(COUNT_METRICS) + time_metrics(SETUP_LAYERS)
             + ["setup.import_s", "trace.overhead_s"])


def unit(name: str) -> str:
    if name.endswith((".bytes", ".bytes_computed")):
        return "B"
    if name in COUNT_METRICS or name.endswith(".calls"):
        return "count"
    return "s"


def make_inputs(workload: str, seed: int, refs: dict) -> dict:
    """The operation inputs; the seed only reorders the exact_large pool."""
    if workload == "exact_large":
        pool = sorted(int(n) for n in refs["exact_large"])
        return {"n": random.Random(seed).sample(pool, len(pool))}
    if workload == "scan_default":
        return {"argv": ["scan", "--out", "scan.csv", "--svg", "scan.svg"]}
    return {"argv": ["verify", "--max", str(VERIFY_MAX)]}


def machine_info() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if read(f"{base}/type") in ("Data", "Unified"):
            caches[f"L{read(f'{base}/level')}"] = read(f"{base}/size")
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
            "platform": platform.platform()}


def run_worker(config: dict, cwd: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          cwd=cwd, env=dict(os.environ, **ONE_THREAD),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tally(workers: list) -> tuple[int, int]:
    """(attempted, failed) operations; scan outputs that differ between workers fail too."""
    digests = [w["digest"] for w in workers]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers) + sum(d != digests[0] for d in digests)
    return attempted, failed


def end_to_end(workers: list, attempted: int, failed: int) -> dict:
    return {
        "setup_s": median(w["setup_s"] for w in workers),
        "op_s": median(t for w in workers for t in w["warm"]),
        "first_op_s": median(w["first_op_s"] for w in workers),
        "peak_rss_mb": median(w["peak_rss_mb"] for w in workers),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(workers: list) -> tuple[dict, bool]:
    """Per-layer metrics, and whether the exact counts repeated in every worker."""
    exact = [{**w["counts"][0], **{k: v for k, v in w["layers"][0].items()
                                   if k.endswith(".calls")}} for w in workers]
    layers = [d for w in workers for d in w["layers"]]
    values = {name: median(d[name] for d in layers) for name in OP_TIME_METRICS}
    values.update(exact[0])
    for name in time_metrics(SETUP_LAYERS):
        values[name] = median(w["setup_layers"][name] for w in workers)
    values["setup.import_s"] = median(w["import_s"] for w in workers)
    values["trace.overhead_s"] = (median(t for w in workers for t in w["traced"])
                                  - median(t for w in workers for t in w["warm"]))
    return values, all(e == exact[0] for e in exact)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "gcdsum" / "__init__.py").is_file():
        print(f"error: no gcdsum sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    refs = json.loads((HERE / "refs.json").read_text(encoding="ascii"))
    inputs = make_inputs(args.workload, args.seed, refs)
    started = time.monotonic()
    workers = []
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cwd:
        while len(workers) < MIN_WORKERS or time.monotonic() - started < args.seconds:
            config = {"root": str(ROOT), "workload": args.workload, "inputs": inputs,
                      "refs": refs.get(args.workload, {}), "offset": len(workers),
                      "slice_s": args.seconds / MIN_WORKERS, "max_warm": MAX_WARM,
                      "trace": bool(args.trace)}
            timeout = RUN_LIMIT_S - (time.monotonic() - started)
            workers.append(run_worker(config, cwd, timeout))

    attempted, failed = tally(workers)
    if args.trace:
        values, counts_repeat = per_layer(workers)
        metrics = {name: {"value": values[name], "unit": unit(name)} for name in PER_LAYER}
    else:
        values, counts_repeat = end_to_end(workers, attempted, failed), True
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END.items()}

    for w in workers[1:]:
        del w["spans"]  # one worker's spans are enough for the record
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "machine": machine_info(),
        "thread_env": ONE_THREAD, "workers": workers, "fail_frac": failed / attempted,
        "counts_repeat": counts_repeat, "metrics": metrics,
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and counts_repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
