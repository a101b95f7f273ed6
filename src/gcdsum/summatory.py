"""Divisor summatory function and hyperbola lattice counts, both O(sqrt x).

D(x) = sum_{n<=x} tau(n) equals the number of integer points (r, s) with
r, s >= 1 and r*s <= x: each n <= x contributes one point (r, n/r) per
divisor r.  Folding that count about the diagonal r = s gives

    D(x) = 2 * sum_{k <= sqrt(x)} floor(x/k) - floor(sqrt(x))^2,

because every point has min(r, s) <= sqrt(x), and the square block with
both coordinates <= sqrt(x) is the part counted twice.
divisor_summatory_batch sums D over a whole non-increasing batch of x at
once, and divisor_summatory(x) is its one-row case.  Its floor sums run in
whole chunks of CHUNK values of k, and take each quotient floor(x_i / k)
by one of three exact routes:

    x_i < RECIP_X          multiply x_i by a reciprocal r_k that is rounded
                           up a little, and floor, in float64
    RECIP_X <= x_i < 2^53  divide in float64 and floor
    2^53 <= x_i            floor-divide in int64

RECIP_X = 818836295885544, about 2^50 / 1.375, is derived from the proof in
floor_sum's docstring.  One table of r_1, ..., r_CHUNK serves the first
chunk of every row below RECIP_X, and each later chunk of r_k is built
once and serves every such row that reaches it.  The other rows, at most
16 of the floor(N / d^2) for any N <= MAX_X, floor-divide their first
chunk in int64, where it sums to less than MAX_X * H(CHUNK) < 2^62, and
take their later chunks by their own route.

Two kernels run these routes in the same loop order.  The compiled one,
floor_sum.c, is built with the system C compiler on the first floor_sum
call in a process, cached per user and loaded with ctypes; it takes each
row's first chunk whole and adds the rows as Python ints.  Where it
cannot be built or loaded, or on an x86-64 CPU without SSE4.1,
floor_sum runs the NumPy kernel, _floor_sum_numpy, which the tests also
use as the reference.  The NumPy kernel runs floor_sum.c's loops one row
at a time, so the two can be checked against each other line by line.

lattice_count evaluates the unfolded floor sum sum_{r<=M} floor(M/r)
instead, batching the O(sqrt M) maximal ranges of r over which the
quotient floor(M/r) is constant.  The two routines are deliberately
independent implementations of the same quantity so they can
cross-validate each other.

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

import bisect
import ctypes
import functools
import operator
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
MAX_X = 225_203_186_528_917_274
# The largest X with X * e < 1, where e = (1 + 2^-53)^3 (1 + 2^-50) - 1 is the
# relative excess of a reciprocal product; floor_sum's docstring gives the proof.
RECIP_X = (2**209 - 1) // ((2**53 + 1) ** 3 * (2**50 + 1) - 2**209)


def _reciprocals(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """r_k = fl(fl(1/k) * (1 + 2^-50)) for a float64 array of k >= 1."""
    recip = np.divide(1.0, k, out=out)
    recip *= 1 + 2**-50
    return recip


# r_1, ..., r_CHUNK, built in place: both kernels read it for the first chunk of k
_RECIP = np.arange(1, CHUNK + 1, dtype=np.float64)
_reciprocals(_RECIP, out=_RECIP)
_RECIP.flags.writeable = False
# its address never changes, so the compiled calls do not look it up each time
_RECIP_ADDRESS = _RECIP.ctypes.data


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
# must run on any CPU the loader accepts.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-trapping-math",
           "-fopenmp-simd")
_COMPILERS = ("cc", "gcc")
_KERNEL_LOCK = threading.Lock()


def _compiled_kernel():
    """The compiled floor-sum kernel, or None where floor_sum runs NumPy.

    It is built and loaded on the first call in a process.  The lock makes
    threads that start on a cold cache wait for one build.
    """
    with _KERNEL_LOCK:
        return _load_kernel()


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


@functools.cache
def _load_kernel():
    """Build floor_sum.c into the cache unless it is there, and load it.

    The library's name hashes the source, the flags, the compiler and the
    machine, so a changed source or flag builds a new one.  The compiler
    writes a temporary file that is then renamed into place, so processes
    that build at once each leave a whole library.  None when there is no
    compiler, the build or the load fails, or the CPU is refused.
    """
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None or os.name != "posix":
        return None
    try:
        tag = "\0".join((*_CFLAGS, compiler, platform.machine(), sys.platform)).encode()
        lib = _cache_dir() / f"floor_sum-{zlib.crc32(_SOURCE.read_bytes() + tag):08x}.so"
        if not lib.exists():
            _build(compiler, lib)
        dll = ctypes.CDLL(str(lib))
    except (OSError, RuntimeError):
        return None
    dll.gcdsum_supported.argtypes = ()
    dll.gcdsum_supported.restype = ctypes.c_int
    if not dll.gcdsum_supported():
        return None
    kernel = dll.gcdsum_floor_sum
    kernel.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    kernel.restype = ctypes.c_int
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
    and the NumPy kernel, _floor_sum_numpy, everywhere else; both take the
    routes below in the same order.  The first chunk of a row at or above
    RECIP_X is x_i // k in int64, and that of a row below RECIP_X takes the
    reciprocal products against the table _RECIP of r_1, ..., r_CHUNK.

    Later chunks: the loop runs over the chunks on the outside and over the
    rows that reach each chunk on the inside; those rows, the ones with
    r_i >= lo, are a prefix of the batch.  A chunk reached by two or more
    rows below RECIP_X builds its reciprocals once and multiplies them into
    each of those rows; one reached by only one such row divides, since
    building its reciprocals would cost more than it saves.  Each row takes
    one of three routes:

    Reciprocal products, x_i < RECIP_X: floor(fl(x_i * r_k)).  With
    u = 2^-53, fl(1/k) >= (1/k)(1 - u), so
    r_k >= (1/k)(1 - u)^2 (1 + 2^-50) >= (1/k)(1 + 2^-51) > 1/k.  Hence
    x_i * r_k >= x_i / k >= m = floor(x_i / k), and since m is a double
    and rounding is monotone, the product never rounds below m.  Above, the
    three roundings (of 1/k, of the bump and of the product) give
    fl(x_i * r_k) <= (x_i / k)(1 + e) with e = (1 + u)^3 (1 + 2^-50) - 1,
    about 1.375 * 2^-50.  A non-integer x_i / k lies at least 1/k below
    m + 1, and (x_i / k) e < 1/k because x_i e < 1 for x_i < RECIP_X, so
    the product stays below m + 1, and for an integer x_i / k = m below
    m + 1 too.

    Float quotients, x_i < 2^53: floor(fl(x_i / k)).  x_i and k are exact
    doubles, so x_i / k is correctly rounded, with an error of at most
    (x_i / k) * 2^-53 < 1/k.  A non-integer x_i / k lies at least 1/k below
    the next integer, so floor never rounds up, and an integer x_i / k is
    exact.

    Int64 quotients, x_i >= 2^53, and the first chunk of every row at or
    above RECIP_X: x_i // k, exact.

    Sums: every partial sum of a chunk's terms, in any order, is an integer
    no larger than the chunk's sum.  A first chunk sums to at most
    x_i * H(CHUNK), H(CHUNK) < 10.3: below RECIP_X * 10.3 < 2^53 on the
    reciprocal route, and below MAX_X * 10.3 < 2^62 in int64.  A later chunk
    [lo, lo + CHUNK) has at most CHUNK terms, each at most x_i / lo with
    lo > CHUNK, so it sums to less than x_i: below 2^53 on the float routes
    and below 2^63 on the int64 one.  So every float64 sum is exact and no
    int64 chunk sum can wrap.  The compiled kernel adds a row's chunk sums
    in int64, where the row's sum is at most D(x_i) < 2^63 for x_i <= MAX_X,
    and the rows as Python ints; the NumPy kernel adds its chunk sums as
    Python ints.
    """
    kernel = _compiled_kernel()
    if kernel is None:
        return _floor_sum_numpy(x, r)
    x = np.ascontiguousarray(x, dtype=np.int64)
    r = np.ascontiguousarray(r, dtype=np.int64)
    if x.ndim != 1 or x.shape != r.shape:
        raise ValueError(f"x and r must be 1-D of one length, not {x.shape} and {r.shape}")
    out = np.empty(len(r), dtype=np.int64)
    if kernel(len(r), x.ctypes.data, r.ctypes.data, _RECIP_ADDRESS, CHUNK, RECIP_X,
              out.ctypes.data):
        raise MemoryError("no memory for a chunk of reciprocals")
    return sum(out.tolist())


def _floor_sum_numpy(x: np.ndarray, r: np.ndarray) -> int:
    """floor_sum in NumPy: the fallback where no compiled kernel loads.

    It runs floor_sum.c's loops one row at a time, each over at most CHUNK
    values of k in one buffer that this call allocates, so concurrent calls
    share nothing.  The first chunk of a row at or above RECIP_X is
    x_i // k in int64, and that of a row below it one multiply, floor and
    sum against _RECIP; later chunks run as floor_sum describes.
    """
    xs, rs = x.tolist(), r.tolist()
    if not rs or not rs[0]:
        return 0
    # rows [0, ints) take the int64 route, rows [ints, divs) the float divide
    # and rows [divs, len(x)) the reciprocal products
    ints = bisect.bisect_right(xs, -(2**53), key=operator.neg)
    divs = bisect.bisect_right(xs, -RECIP_X, key=operator.neg)
    total = sum(int((v // np.arange(1, min(w, CHUNK) + 1, dtype=np.int64)).sum())
                for v, w in zip(xs[:divs], rs))
    buf = np.empty(min(CHUNK, rs[0]))
    for v, w in zip(xs[divs:], rs[divs:]):
        q = buf[: min(w, CHUNK)]
        np.multiply(_RECIP[: len(q)], float(v), out=q)
        np.floor(q, out=q)
        total += int(q.sum())
    k = np.arange(CHUNK + 1, min(2 * CHUNK, rs[0]) + 1, dtype=np.float64)
    recip = None
    for lo in range(CHUNK + 1, rs[0] + 1, CHUNK):
        live = bisect.bisect_right(rs, -lo, key=operator.neg)
        # rows [muls, live) multiply by one shared chunk of reciprocals
        muls = divs if live - divs > 1 else live
        if muls < live:
            recip = _reciprocals(k, out=recip)
        for i in range(live):
            v, n = xs[i], min(CHUNK, rs[i] + 1 - lo)
            if i < ints:
                total += int((v // np.arange(lo, lo + n, dtype=np.int64)).sum())
            else:
                q = buf[:n]
                if i < muls:
                    np.divide(float(v), k[:n], out=q)
                else:
                    np.multiply(recip[:n], float(v), out=q)
                np.floor(q, out=q)
                total += int(q.sum())
        k += CHUNK
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


def _lattice_count(m: int) -> int:
    total = 0
    r = 1
    while r <= m:
        q = m // r
        r_hi = m // q
        total += q * (r_hi - r + 1)
        r = r_hi + 1
    return total
