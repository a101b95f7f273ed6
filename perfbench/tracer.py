"""Per-layer tracing of gcdsum, installed from outside the package.

The tracer swaps module attributes such as ``gcdsum.gcd_sum.divisor_summatory``
for timing wrappers and puts the originals back when its ``installed`` block
exits, so nothing under src/ is edited.  An attribute is wrapped in the module
whose code looks it up at call time, which is where every call passes.

For each layer it keeps calls, inclusive seconds and child seconds (time in
wrapped layers called from it, so self time = seconds - child seconds), and
exact counts computed from the call's arguments.  Spans (name, parent span,
start, end) are kept in memory for the outer layers.  The two inner layers
called about 10^6 times per large S(N) are aggregated into their parent span
instead, which keeps the overhead down; trace.overhead_s reports what is left.
"""

import contextlib
import importlib
import math
import os
from collections import defaultdict
from time import perf_counter


def _sieve(counts, limit, *_, **__):
    counts["arith.sieve_tau.entries"] += limit + 1
    # tau and prefix: two int64 arrays of limit + 1 entries each
    counts["arith.sieve_tau.bytes_computed"] += 16 * (limit + 1)


def _iters(counts, x, *_, **__):
    counts["summatory.divisor_summatory.iters"] += math.isqrt(x)


def quotient_blocks(m: int) -> int:
    """Number of distinct values of m // r for 1 <= r <= m."""
    r = math.isqrt(m)
    return 2 * r - (m < r * (r + 1))


def _blocks(counts, m, *_, **__):
    counts["summatory.lattice_count.blocks"] += quotient_blocks(m)


def _terms(counts, n, *_, **__):
    counts["gcd_sum.terms"] += math.isqrt(n)


def brute_gcds(n: int) -> int:
    """gcd evaluations in s_brute(n): the rows a <= isqrt(n), then the square block."""
    r = math.isqrt(n)
    return sum(n // a for a in range(1, r + 1)) + r * r


def _gcds(counts, n, *_, **__):
    counts["gcd_sum.s_brute.gcds"] += brute_gcds(n)


def _file_bytes(layer):
    def count(counts, records, path, *_, **__):
        counts[f"{layer}.bytes"] += os.path.getsize(path)
    return count


# (module, attribute, layer, time fields reported, counter).  Layers in
# AGGREGATED record no spans of their own.
OP_LAYERS = (
    ("gcdsum.gcd_sum", "sieve_tau", "arith.sieve_tau", ("calls", "s"), _sieve),
    ("gcdsum.gcd_sum", "divisor_summatory", "summatory.divisor_summatory",
     ("calls", "s"), _iters),
    ("gcdsum.gcd_sum", "lattice_count", "summatory.lattice_count", ("calls", "s"), _blocks),
    ("gcdsum.gcd_sum", "s_identity", "gcd_sum.s_identity", ("calls", "s", "self_s"), _terms),
    ("gcdsum.gcd_sum", "s_lemma1", "gcd_sum.s_lemma1", ("calls", "s", "self_s"), _terms),
    ("gcdsum.gcd_sum", "s_brute", "gcd_sum.s_brute", ("calls", "s", "self_s"), _gcds),
    ("gcdsum.asymptotics", "main_term", "asymptotics.main_term",
     ("calls", "s", "self_s"), None),
    ("gcdsum.asymptotics", "error_at", "asymptotics.error_at", ("calls", "s", "self_s"), None),
    ("gcdsum.cli", "error_scan", "asymptotics.error_scan", ("calls", "s", "self_s"), None),
    ("gcdsum.cli", "write_csv", "report.write_csv", ("s",), _file_bytes("report.write_csv")),
    ("gcdsum.cli", "write_svg", "report.write_svg", ("s",), _file_bytes("report.write_svg")),
    ("gcdsum.cli", "run", "cli.run", ("self_s",), None),
)
SETUP_LAYERS = (
    ("gcdsum", "default_constants", "constants.default_constants", ("s",), None),
    ("gcdsum.constants", "euler_gamma", "constants.euler_gamma", ("s",), None),
    ("gcdsum.constants", "theta", "constants.theta", ("s",), None),
)
AGGREGATED = frozenset({"summatory.divisor_summatory", "summatory.lattice_count"})

COUNT_METRICS = (
    "arith.sieve_tau.entries",
    "arith.sieve_tau.bytes_computed",
    "summatory.divisor_summatory.iters",
    "summatory.lattice_count.blocks",
    "gcd_sum.terms",
    "gcd_sum.s_brute.gcds",
    "report.write_csv.bytes",
    "report.write_svg.bytes",
)


def time_metrics(layers) -> list:
    """Names of the timing metrics the given layers report, in table order."""
    return [f"{layer}.{field}" for _, _, layer, fields, _ in layers for field in fields]


class Tracer:
    """Wraps gcdsum layers; read the totals with snapshot(), clear them with reset()."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []  # one [child seconds, span index] frame per active call

    def reset(self) -> None:
        for table in (self.calls, self.seconds, self.child, self.counts):
            table.clear()
        self.spans.clear()

    def _wrap(self, layer, fn, counter):
        calls, seconds, child, counts = self.calls, self.seconds, self.child, self.counts
        stack, spans = self._stack, self.spans
        keep_span = layer not in AGGREGATED

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(counts, *args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[layer] += 1
                seconds[layer] += elapsed
                child[layer] += frame[0]
                if keep_span:
                    spans[span] = (layer, parent, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, layers):
        """Wrap every layer for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module_name, attr, layer, _, counter in layers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def snapshot(self, layers) -> dict:
        """Per-layer metrics accumulated since the last reset()."""
        out = {}
        for _, _, layer, fields, _ in layers:
            values = {"calls": self.calls[layer], "s": self.seconds[layer],
                      "self_s": self.seconds[layer] - self.child[layer]}
            out.update((f"{layer}.{field}", values[field]) for field in fields)
        return out

    def count_snapshot(self) -> dict:
        """Exact counts accumulated since the last reset()."""
        return {name: self.counts[name] for name in COUNT_METRICS}
