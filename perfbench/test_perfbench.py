"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gcdsum  # noqa: E402
from gcdsum import Algorithm  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
REFS = json.loads((HERE / "refs.json").read_text(encoding="ascii"))
ALL_LAYERS = tracer.OP_LAYERS + tracer.SETUP_LAYERS


def attributes():
    return [getattr(importlib.import_module(module), attr) for module, attr, *_ in ALL_LAYERS]


def test_tracer_restores_attributes_even_on_error():
    originals = attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed(ALL_LAYERS):
            assert all(now is not orig for now, orig in zip(attributes(), originals))
            raise RuntimeError("boom")
    assert all(now is orig for now, orig in zip(attributes(), originals))


def lattice_blocks(m):
    """Iterations of the quotient-block loop in summatory.lattice_count."""
    blocks, r = 0, 1
    while r <= m:
        r = m // (m // r) + 1
        blocks += 1
    return blocks


def test_quotient_blocks_matches_the_loop():
    assert [tracer.quotient_blocks(m) for m in range(3000)] == [
        lattice_blocks(m) for m in range(3000)]


@pytest.mark.parametrize("n", [1, 17, 1000, 2000])
def test_traced_counts_are_exact_and_results_unchanged(n):
    t = tracer.Tracer()
    with t.installed(tracer.OP_LAYERS):
        values = {alg: gcdsum.s_exact(n, alg) for alg in Algorithm}
    assert len(set(values.values())) == 1
    assert values[Algorithm.IDENTITY_SUMMATORY] == gcdsum.s_identity(n)

    r = math.isqrt(n)
    xs = [n // (d * d) for d in range(1, r + 1)]
    counts = t.count_snapshot()
    assert counts["summatory.divisor_summatory.iters"] == sum(math.isqrt(x) for x in xs)
    assert counts["summatory.lattice_count.blocks"] == sum(lattice_blocks(x) for x in xs)
    assert counts["gcd_sum.terms"] == 2 * r
    assert counts["gcd_sum.s_brute.gcds"] == sum(n // a for a in range(1, r + 1)) + r * r
    assert counts["arith.sieve_tau.entries"] == r + 1
    layers = t.snapshot(tracer.OP_LAYERS)
    assert layers["summatory.divisor_summatory.calls"] == r
    assert layers["gcd_sum.s_brute.calls"] == 1
    assert 0 <= layers["gcd_sum.s_identity.self_s"] <= layers["gcd_sum.s_identity.s"]
    assert [name for name, *_ in t.spans] == [
        "gcd_sum.s_brute", "arith.sieve_tau", "gcd_sum.s_lemma1", "gcd_sum.s_identity"]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == {name: run.unit(name) for name in run.PER_LAYER}
    names = list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_inputs_and_cost_class():
    pool = sorted(int(n) for n in REFS["exact_large"])
    for workload in run.WORKLOADS:
        assert run.make_inputs(workload, 7, REFS) == run.make_inputs(workload, 7, REFS)
    for seed in range(20):
        ns = run.make_inputs("exact_large", seed, REFS)["n"]
        assert sorted(ns) == pool
    # every pooled N takes the same number of floor divisions in s_identity
    iters = {sum(math.isqrt(n // (d * d)) for d in range(1, math.isqrt(n) + 1)) for n in pool}
    assert len(iters) == 1
    assert run.make_inputs("exact_large", 1, REFS) != run.make_inputs("exact_large", 2, REFS)


def small_config(refs):
    return {"root": str(ROOT), "workload": "exact_large", "inputs": {"n": [1000, 2000]},
            "refs": refs, "offset": 0, "slice_s": 0.05, "max_warm": 1000, "trace": False}


def test_wrong_reference_is_counted_in_fail_frac():
    good = {"1000": gcdsum.s_lemma1(1000), "2000": gcdsum.s_lemma1(2000)}
    bad = dict(good, **{"2000": good["2000"] + 1})
    passing = worker.measure(small_config(good))
    failing = worker.measure(small_config(bad))
    assert passing["failed"] == 0 and passing["attempted"] >= 2
    # operations alternate between N = 1000 and N = 2000
    assert failing["failed"] == failing["attempted"] // 2 >= 1
    attempted, failed = run.tally([passing, failing])
    assert failed == failing["failed"] >= 1
    assert attempted == passing["attempted"] + failing["attempted"]
    metrics = run.end_to_end([passing, failing], attempted, failed)
    assert metrics["ok_frac"] < 1


def test_scan_check_rejects_a_wrong_reference(tmp_path):
    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    argv = ["scan", "--from", "10", "--to", "1000", "--points", "4",
            "--out", str(csv), "--svg", str(svg)]
    status, _ = worker.run_cli(gcdsum, argv)
    assert status == 0
    grid = gcdsum.ScanSpec(10, 1000, 4).grid()
    refs = {str(n): gcdsum.s_lemma1(n) for n in grid}
    ok, digest = worker.check_scan(csv.read_text(), svg.read_bytes(), refs)
    assert ok
    refs[str(grid[-1])] += 1
    assert worker.check_scan(csv.read_text(), svg.read_bytes(), refs) == (False, digest)


def test_digest_mismatch_between_workers_is_a_failure():
    workers = [{"attempted": 3, "failed": 0, "digest": d} for d in ("a", "a", "b")]
    assert run.tally(workers) == (9, 1)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
