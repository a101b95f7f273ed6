"""Divisor summatory function and hyperbola lattice counts, both O(sqrt x).

D(x) = sum_{n<=x} tau(n) equals the number of integer points (r, s) with
r, s >= 1 and r*s <= x: each n <= x contributes one point (r, n/r) per
divisor r.  Folding that count about the diagonal r = s gives

    D(x) = 2 * sum_{k <= sqrt(x)} floor(x/k) - floor(sqrt(x))^2,

because every point has min(r, s) <= sqrt(x), and the square block with
both coordinates <= sqrt(x) is the part counted twice.
divisor_summatory_batch sums D over a whole non-increasing batch of x at
once, and divisor_summatory(x) is its one-row case.  Its floor sums run in
whole chunks of CHUNK values of k, in one of two kernels.

The compiled kernel, floor_sum.c, is built with the system C compiler on
the first floor_sum, gcd_sum.s_lemma1 or gcd_sum.s_identity call in a
process, cached per user and loaded with ctypes; every later call finds it
loaded without taking a lock.  Its header gives the route
that each row and chunk of k takes: int64 quotients, float64 quotients,
or float64 products with reciprocals r_k that are rounded up a little,
and the proof of those products.
RECIP_X = 818836295885544, about 2^50 / 1.375, the x below which the
products are exact, is derived from that proof.

Where the compiled kernel cannot be built or loaded, floor_sum runs the
NumPy kernel, _floor_sum_numpy, which the tests also use as the
reference.  It builds no reciprocals: it divides in float64 below 2^53
and in int64 above, and sums each chunk in int64.

The library also owns the divisor table D(0..TABLE_CAP) that
gcd_sum.s_identity reads its small D(x) from: a fixed static array that
floor_sum.c sieves when it loads, and that its gcdsum_table_sum reads.  No
table crosses ctypes.  Where no library loads, gcd_sum builds the same
table in NumPy.

lattice_count evaluates the unfolded floor sum sum_{r<=M} floor(M/r)
instead, batching the O(sqrt M) maximal ranges of r over which the
quotient floor(M/r) is constant.  The two routines are deliberately
independent implementations of the same quantity so they can
cross-validate each other.  The library's gcdsum_lemma1 walks the same
blocks in C for every floor(N / d^2) of s_lemma1(N) in one call, with one
division per block: it adds the quotient of each r alone while the block
of r is {r}, and then steps the quotient down by one per block, which
floor_sum.c's header proves visits every block once.  Where no
library loads, s_lemma1 calls _lattice_count instead, which keeps its last
128 counts: floor(N / d^2) repeats over runs of consecutive d once
d > N^(1/3) and, in a sweep over N, stays the same for d^2 consecutive N,
while only about 2 N^(1/3) arguments are live at a time.

Boundary convention: points on the hyperbola r*s = x are included,
points on either axis are not.

Domain: D(x) = sum_{k<=x} floor(x/k) <= x * H(x) <= x * (1 + ln x), and
MAX_X is the largest x for which that bound is at most 2^63 - 1.  Both
routines refuse a larger argument before their O(sqrt x) loop starts, so
every result fits int64 and is not checked again, and MAX_X is the only
bound the kernel's chunks are sized for.  divisor_summatory_batch and
_lattice_count take their arguments without that check, for the S(N)
evaluators: they check N once, and every floor(N / d^2) they pass on is
then in the domain.
"""

import ctypes
import functools
import os
import platform
import shutil
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np

from .arith import check_natural

CHUNK = 2**14
# the last entry of the divisor table, D(0..TABLE_CAP), 1 MB
TABLE_CAP = 2**17
MAX_X = 225_203_186_528_917_274
# The largest X with X * e < 1, where e = (1 + 2^-53)^3 (1 + 2^-50) - 1 is the
# relative excess of a reciprocal product; floor_sum.c gives the proof.
RECIP_X = (2**209 - 1) // ((2**53 + 1) ** 3 * (2**50 + 1) - 2**209)


def _check_domain(x: int, name: str) -> None:
    check_natural(x, name)
    if x > MAX_X:
        raise OverflowError(
            f"{name}={x} exceeds MAX_X = {MAX_X}, the largest x with "
            f"x * (1 + ln x) <= 2^63 - 1"
        )


def _isqrt(q: np.ndarray) -> np.ndarray:
    """math.isqrt of every entry of an int64 array with entries in [0, MAX_X].

    np.sqrt rounds q to a double, then takes the correctly rounded root s.
    s is never below k = isqrt(q): q >= k^2 rounds to at least
    k^2 (1 - 2^-53), whose root lies within half a double spacing below k,
    so it rounds to k or above.  s is below k + 2: both roundings move
    sqrt(q) < 2^29 by less than 2^-23.  So the truncated s needs only one
    downward correction, and its square is at most (isqrt(MAX_X) + 1)^2,
    far below 2^63.
    """
    s = np.sqrt(q).astype(np.int64)
    s -= s * s > q
    return s


_SOURCE = Path(__file__).with_name("floor_sum.c")
# Every product, quotient and floor must be one correctly rounded IEEE
# operation for floor_sum's proofs, so no -ffast-math or any part of it, and
# no fused multiply-adds.  -fopenmp-simd enables only the source's `omp simd`
# reductions, which the proofs allow, and -fno-trapping-math lets floor
# vectorize; neither changes a value.  No -march=native: the cached library
# must run on any CPU of its architecture.  CHUNK, RECIP_X and TABLE_CAP are
# defined here only, and reach the C source, and the library's hash, as -D
# constants.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-trapping-math",
           "-fopenmp-simd", f"-DCHUNK={CHUNK}", f"-DRECIP_X={RECIP_X}",
           f"-DTABLE_CAP={TABLE_CAP}")
_COMPILERS = ("cc", "gcc")
_KERNEL_LOCK = threading.Lock()
# [the library, or None], once _compiled_kernel has run; _KERNEL.clear()
# empties it, so that the next call builds and loads again
_KERNEL = []


def _compiled_kernel():
    """The compiled library, or None where floor_sum and s_identity's table
    half run NumPy and s_lemma1 sums its lattice counts in Python.

    It is built and loaded on the first call in a process and kept in
    _KERNEL.  A warm call reads _KERNEL without a lock.  A cold one takes
    the lock and looks again under it, so threads that start on a cold
    cache wait for one build.
    """
    if not _KERNEL:
        with _KERNEL_LOCK:
            if not _KERNEL:
                _KERNEL.append(_load_kernel())
    return _KERNEL[0]


def _private_dir(path: Path) -> Path:
    """path, created if missing; refused unless this user owns it and only
    this user can write to it, so no one else can plant a library there."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not a private directory")
    return path


def _cache_dir() -> Path:
    """The user's cache directory for gcdsum, or a private one under the temp
    directory when that cannot be used."""
    try:
        base = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        return _private_dir(base / "gcdsum")
    except (OSError, RuntimeError):
        return _private_dir(Path(tempfile.gettempdir()) / f"gcdsum-{os.getuid()}")


def _load_kernel():
    """Build floor_sum.c into the cache unless it is there, and load it.

    The library's name hashes the source, the flags, the compiler and the
    machine, so a changed source or flag builds a new one.  The compiler
    writes a temporary file that is then renamed into place, so processes
    that build at once each leave a whole library.  None when there is no
    compiler, the OS is not POSIX, or the build or the load fails.
    """
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None or os.name != "posix":
        return None
    try:
        tag = "\0".join((*_CFLAGS, compiler, platform.machine(), sys.platform)).encode()
        lib = _cache_dir() / f"floor_sum-{zlib.crc32(_SOURCE.read_bytes() + tag):08x}.so"
        if not lib.exists():
            _build(compiler, lib)
        return _open_kernel(lib)
    except (OSError, RuntimeError):
        return None


def _open_kernel(lib: Path) -> ctypes.CDLL:
    """The library at lib, its gcdsum_floor_sum, gcdsum_lemma1 and
    gcdsum_table_sum bound with their C signatures.  Loading it runs its
    constructor, which builds the reciprocal and divisor tables, about 1 ms.
    gcdsum_lemma1 returns an unsigned 64-bit sum, as S(N) passes 2^63 below
    MAX_X."""
    kernel = ctypes.CDLL(str(lib))
    floor_sum, lemma1, table_sum = (kernel.gcdsum_floor_sum, kernel.gcdsum_lemma1,
                                    kernel.gcdsum_table_sum)
    floor_sum.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    lemma1.argtypes = table_sum.argtypes = (ctypes.c_int64, ctypes.c_int64)
    floor_sum.restype, lemma1.restype, table_sum.restype = (ctypes.c_int, ctypes.c_uint64,
                                                            ctypes.c_int64)
    return kernel


def _build(compiler: str, lib: Path) -> None:
    # subprocess is imported only here, so that a cached library costs no import
    import subprocess

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)],
                       capture_output=True, timeout=300, check=True)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as error:
        raise RuntimeError(f"{compiler} could not build {_SOURCE.name}") from error
    finally:
        Path(tmp).unlink(missing_ok=True)


def floor_sum(x: np.ndarray, r: np.ndarray) -> int:
    """Exact sum over the rows of sum_{k=1..r_i} x_i // k, as a Python int.

    x and r are non-increasing int64 arrays of one length, with
    0 <= x_i <= MAX_X and r_i >= 0.  The chunks of k are [lo, lo + CHUNK),
    lo = 1, CHUNK + 1, ..., and every row sums every chunk it reaches whole.
    The compiled kernel runs the call wherever _compiled_kernel loads it,
    and the NumPy kernel, _floor_sum_numpy, everywhere else.  The compiled
    kernel's routes, and the proof of its reciprocal products, are in
    floor_sum.c.  Both kernels rest on the float and int64 quotients:

    Float quotients, x_i < 2^53: floor(fl(x_i / k)).  x_i and k are exact
    doubles, so x_i / k is correctly rounded, with an error of at most
    (x_i / k) * 2^-53 < 1/k.  A non-integer x_i / k lies at least 1/k below
    the next integer, so floor never rounds up, and an integer x_i / k is
    exact.  Every quotient is at least 0, so truncation to int64 is floor
    too.

    Int64 quotients, x_i >= 2^53: x_i // k, exact.

    The NumPy kernel sums each chunk of quotients in int64.  A first chunk
    sums to at most x_i * H(CHUNK) < MAX_X * 10.3 < 2^62, with
    H(CHUNK) < 10.3, and a later chunk [lo, lo + CHUNK) to less than
    CHUNK * x_i / lo < x_i, so no chunk sum can wrap; the chunk sums are
    added as Python ints.
    """
    x = np.ascontiguousarray(x, dtype=np.int64)
    r = np.ascontiguousarray(r, dtype=np.int64)
    if x.ndim != 1 or x.shape != r.shape:
        raise ValueError(f"x and r must be 1-D of one length, not {x.shape} and {r.shape}")
    kernel = _compiled_kernel()
    if kernel is None:
        return _floor_sum_numpy(x, r)
    out = np.empty(len(r), dtype=np.int64)
    if kernel.gcdsum_floor_sum(len(r), x.ctypes.data, r.ctypes.data, out.ctypes.data):
        raise MemoryError("no memory for a chunk of reciprocals")
    return sum(out.tolist())


def _floor_sum_numpy(x: np.ndarray, r: np.ndarray) -> int:
    """floor_sum in NumPy: the fallback where no compiled kernel loads.

    One loop over the chunks of k, and inside it one over the rows that
    reach the chunk: float quotients below 2^53, int64 ones above.  It
    shares no reciprocals or route split with floor_sum.c, which the tests
    check against it.
    """
    xs, rs = x.tolist(), r.tolist()
    total = 0
    for lo in range(1, rs[0] + 1 if rs else 1, CHUNK):
        k = np.arange(lo, lo + CHUNK, dtype=np.int64)
        # dividing by float64 k casts no int64 to float64 in the loop
        kf = k.astype(np.float64)
        for v, w in zip(xs, rs):
            if w < lo:
                break
            n = min(CHUNK, w + 1 - lo)
            q = np.divide(float(v), kf[:n]).astype(np.int64) if v < 2**53 else v // k[:n]
            total += int(q.sum())
    return total


def divisor_summatory_batch(x: np.ndarray) -> int:
    """Exact sum of D(x_i) over a non-increasing int64 array of 0 <= x_i <= MAX_X.

    One floor_sum over the batch with r_i = isqrt(x_i).  The arguments are
    not checked, and their sum must be at most 2^63 - 1, so that the sum of
    the r_i^2 fits int64; the floor(N / d^2) of any N <= MAX_X sum to at
    most N * zeta(2) < 2^59.
    """
    r = _isqrt(x)
    return 2 * floor_sum(x, r) - int(r @ r)


def divisor_summatory(x: int) -> int:
    """Exact D(x) = sum_{n<=x} tau(n) via the folded hyperbola identity."""
    _check_domain(x, "x")
    return divisor_summatory_batch(np.array([x], dtype=np.int64))


def lattice_count(m: int) -> int:
    """Count integer points (r, s) with r, s >= 1 and r*s <= m.

    Walks the distinct quotient values q = floor(m/r): every r in
    [r, m // q] contributes the same q points, so each block is settled
    with one multiplication.
    """
    _check_domain(m, "m")
    return _lattice_count(m)


@functools.lru_cache
def _lattice_count(m: int) -> int:
    total = 0
    r = 1
    while r <= m:
        q = m // r
        r_hi = m // q
        total += q * (r_hi - r + 1)
        r = r_hi + 1
    return total
