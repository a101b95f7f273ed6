/* The compiled kernels of gcdsum.summatory.floor_sum and divisor_prefix, the
   lattice-count sum of gcdsum.gcd_sum.s_lemma1 and the table half of
   gcdsum.gcd_sum.s_identity.

   gcdsum_floor_sum writes out[i] = sum_{k=1..r_i} x_i // k for every row
   of a non-increasing batch with 0 <= x_i <= MAX_X; the Python caller adds
   the rows as Python ints.  CHUNK and RECIP_X come from summatory._CFLAGS
   as -D constants.  Every row sums its chunks of CHUNK values of k by one
   of two rules:

   - Each row at or above RECIP_X, a prefix of the batch and at most 16
     rows of any S(N), is summed alone, chunk by chunk: x_i / k in int64
     in its first chunk, and in every chunk from 2^53 on; floor(x_i / k) in
     double in its other chunks.
   - The rows below RECIP_X then run in one loop over the chunks outside
     and over the rows that reach a chunk, a prefix of them, inside.  They
     take floor(x_i * r_k), r_k = fl(fl(1/k) (1 + 2^-50)): in the first
     chunk against the table of r_1..r_CHUNK, built once when the library
     loads, and in a later chunk that two or more rows reach against one
     chunk of r_k built for it.  A lone row divides its later chunk
     instead, since building the reciprocals would cost more than it saves.

   Reciprocal products: with u = 2^-53, fl(1/k) >= (1/k)(1 - u), so
   r_k >= (1/k)(1 - u)^2 (1 + 2^-50) >= (1/k)(1 + 2^-51) > 1/k.  Hence
   x_i * r_k >= x_i / k >= m = floor(x_i / k), and since m is a double and
   rounding is monotone, the product never rounds below m.  Above, the
   three roundings (of 1/k, of the bump and of the product) give
   fl(x_i * r_k) <= (x_i / k)(1 + e) with e = (1 + u)^3 (1 + 2^-50) - 1,
   about 1.375 * 2^-50.  A non-integer x_i / k lies at least 1/k below
   m + 1, and (x_i / k) e < 1/k because x_i e < 1 for x_i < RECIP_X, so the
   product stays below m + 1, and for an integer x_i / k = m below m + 1
   too.  The float quotients are exact by floor_sum's docstring.

   The proofs assume that every product, quotient and floor is one
   correctly rounded IEEE operation, so this file is built with
   -ffp-contract=off and without -ffast-math or any of its parts.  The only
   reordering is the vectorized sum that `#pragma omp simd reduction` allows
   under -fopenmp-simd.  It adds integer-valued doubles, and every partial
   sum of a chunk's terms is at most the chunk's sum.  A first chunk sums
   to at most x_i * H(CHUNK) < RECIP_X * 10.3 < 2^53 on the reciprocal
   route and MAX_X * 10.3 < 2^62 in int64; a later chunk from lo > CHUNK
   sums to less than x_i, below 2^53 on the float routes and below MAX_X
   in int64.  So every order gives the same exact sum.  A row's sum is at
   most D(x_i) < 2^63 for x_i <= MAX_X, so out[i] cannot wrap.

   mul_rows multiplies the rows of a chunk that share its reciprocals in
   groups of four, loading each reciprocal once into four sums, one per
   row, over the span of the group's fourth and shortest row, so that four
   chains of adds run side by side.  Each row's block sum and the sum of
   its tail past that span are partial sums of the row's chunk terms, so
   each is below 2^53 and exact, and they are added in int64.

   On x86-64 the loops are cloned for x86-64-v4 (AVX-512), x86-64-v3
   (AVX2), x86-64-v2 and the baseline, and the resolver picks one when the
   library loads.
   gcdsum_floor_sum returns 0, or -1 when the buffer of a later chunk's
   reciprocals cannot be allocated.

   gcdsum_divisor_prefix writes out[n] = D(n) = sum_{m<=n} tau(m) for
   0 <= n <= limit: the divisor table of gcd_sum.s_identity.  Its rule:
   each m >= 1 has one divisor pair (a, b) with ab = m and a <= b per
   divisor a <= sqrt(m), which adds 2 to tau(m), or 1 when a = b.  So each
   a <= isqrt(limit) adds 2 at its multiples from a^2 on and takes 1 back
   at a^2.  The n run in segments [lo, hi) of SEGMENT entries, in order,
   and no state passes from one segment to the next: a segment marks the
   multiples below hi of every a with a^2 < hi, from a^2 when a^2 >= lo,
   and otherwise from the least multiple of a at or above lo.  So each
   pair is marked once, in the segment that holds its product, and a
   finished segment holds tau(lo..hi-1), which is added onto the running
   sum in out.  A segment holds tau in int32: tau(m) <= 2 sqrt(m), as one
   member of each divisor pair is at most sqrt(m), so tau(m) < 2^31 for
   every m < 2^60; the running sums are int64, and D(n) <= n (1 + ln n).
   The segment, 32 KB, is an array on the stack: each call, and so each
   thread, gets its own, which stays in the L1 cache and costs no
   allocation.  A static _Thread_local buffer of 128 KB made every later
   gcdsum_floor_sum call about 3 us slower on a 2-core Xeon.  The sieve is
   scalar integer code, so it is not cloned.  It allocates nothing and
   cannot fail.

   gcdsum_lemma1 returns S(n) = sum_{d=1..end} lattice_count(n / d^2) for
   1 <= n <= MAX_X and end = isqrt(n), which the caller passes: the sum of
   gcd_sum.s_lemma1.  lattice_count(m) is summatory._lattice_count's
   unfolded walk over the blocks of r that share one quotient q = m / r,
   each settled as q (m / q - r + 1).  It shares no math with
   gcd_sum.s_identity: integer division only, no floats, reciprocals,
   divisor table or folding.  Its bounds: a block adds at most m, and a
   count is D(m) <= m (1 + ln m) <= 2^63 - 1 for m <= MAX_X, so no count
   wraps.  The sum is at most sum_d (n / d^2)(1 + ln n) <= zeta(2) (2^63 -
   1) < 2^64, so one uint64 holds it with no carry.  It can exceed 2^63,
   as S(MAX_X) = 14436324993676221952 does, so the caller reads it
   unsigned.  Scalar integer code too, not cloned; it allocates nothing and
   cannot fail.

   gcdsum_table_sum returns the table half of s_identity(n): with d0 =
   isqrt(n / (L + 1)) + 1, where L + 1 is the length of prefix = D(0..L),
   and d0 <= d1 <= isqrt(n) + 1, it is
   sum_{d0 <= d < d1} prefix[n / d^2] plus the fold of every d >= d1,
   sum_{m <= n / d1^2} tau(m) (isqrt(n / m) - d1 + 1) with
   tau(m) = prefix[m] - prefix[m - 1]: s_identity's NumPy gather and
   gcd_sum._folded_tail, whose docstring derives the fold, in one call.
   d >= d0 keeps every n / d^2, and every m, inside the table.  Its isqrt
   is summatory._isqrt in scalar form: the truncated sqrt((double)q) of
   q = n / m <= MAX_X is isqrt(q) or isqrt(q) + 1, by _isqrt's proof, so
   one downward correction makes it exact, and s^2 is far below 2^63.
   The gather adds at most (d1 - d0) D(L) and the fold at most
   isqrt(n) D(L), as it equals the gather over d1 <= d <= isqrt(n), so the
   sum is at most (d1 - d0 + isqrt(n)) D(L) <= 2 isqrt(n) D(L)
   < 2^30 * 2^21 for n <= MAX_X and L = 2^17, far below 2^63.  Scalar
   integer code, not cloned; it allocates nothing and cannot fail. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "arch=x86-64-v2", \
                                             "default")))
#else
#define CLONES
#endif

/* recip[j] = r_k for k = lo + j, j < n.  Always inlined, as mul_rows is. */
__attribute__((always_inline))
static inline void reciprocals(double *recip, double lo, int n)
{
#pragma omp simd
    for (int j = 0; j < n; j++)
        recip[j] = 1.0 / (lo + j) * (1 + 0x1p-50);
}

/* r_1, ..., r_CHUNK */
static double table[CHUNK];

__attribute__((constructor))
static void build_table(void)
{
    reciprocals(table, 1, CHUNK);
}

/* sum_{j<n} floor(v * recip[j]) and sum_{j<n} floor(v / (klo + j)) */
static inline double mul_sum(double v, const double *recip, int n)
{
    double s = 0;
#pragma omp simd reduction(+:s)
    for (int j = 0; j < n; j++)
        s += floor(v * recip[j]);
    return s;
}

static inline double div_sum(double v, double klo, int n)
{
    double s = 0;
#pragma omp simd reduction(+:s)
    for (int j = 0; j < n; j++)
        s += floor(v / (klo + j));
    return s;
}

/* sum_{k=lo..lo+n-1} x // k */
static inline int64_t int_sum(int64_t x, int64_t lo, int n)
{
    int64_t s = 0;
    for (int64_t k = lo; k < lo + n; k++)
        s += x / k;
    return s;
}

/* the terms a row with r_i = lo - 1 + n has in the chunk from lo */
static inline int span(int64_t n)
{
    return (int)(n < CHUNK ? n : CHUNK);
}

/* out[i] += sum_{j<n_i} floor(x_i * recip[j]) for the rows [a, b) of the
   chunk from lo, n_i = span(r_i + 1 - lo).  Four rows at a time load each
   recip[j] once over the span of the fourth, the shortest, into four sums;
   each row's tail past that span (none for the fourth), and the last 0-3
   rows, go through mul_sum.  Always inlined: an out-of-line copy would be
   built for the baseline target alone and serve every clone. */
__attribute__((always_inline))
static inline void mul_rows(const int64_t *x, const int64_t *r, const double *recip, int64_t lo,
                            int64_t a, int64_t b, int64_t *out)
{
    int64_t i = a;
    for (; i + 4 <= b; i += 4) {
        double v0 = (double)x[i], v1 = (double)x[i + 1], v2 = (double)x[i + 2],
               v3 = (double)x[i + 3], s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        int n = span(r[i + 3] + 1 - lo);
#pragma omp simd reduction(+:s0,s1,s2,s3)
        for (int j = 0; j < n; j++) {
            double q = recip[j];
            s0 += floor(v0 * q);
            s1 += floor(v1 * q);
            s2 += floor(v2 * q);
            s3 += floor(v3 * q);
        }
        double s[4] = {s0, s1, s2, s3};
        for (int l = 0; l < 4; l++)
            out[i + l] += (int64_t)s[l] + (int64_t)mul_sum((double)x[i + l], recip + n,
                                                           span(r[i + l] + 1 - lo) - n);
    }
    for (; i < b; i++)
        out[i] += (int64_t)mul_sum((double)x[i], recip, span(r[i] + 1 - lo));
}

CLONES
int gcdsum_floor_sum(int64_t rows, const int64_t *x, const int64_t *r, int64_t *out)
{
    int64_t top, live = rows, i;
    double *recip = NULL;
    for (i = 0; i < rows; i++)
        out[i] = 0;
    /* the rows at or above RECIP_X, each alone */
    for (top = 0; top < rows && x[top] >= RECIP_X; top++)
        for (int64_t lo = 1; lo <= r[top]; lo += CHUNK)
            out[top] += lo == 1 || x[top] >= (INT64_C(1) << 53)
                            ? int_sum(x[top], lo, span(r[top] + 1 - lo))
                            : (int64_t)div_sum((double)x[top], (double)lo, span(r[top] + 1 - lo));
    /* the rows below RECIP_X: [top, live) reach the chunk from lo */
    for (int64_t lo = 1; top < rows && lo <= r[top]; lo += CHUNK) {
        while (r[live - 1] < lo)
            live--;
        if (lo > 1 && live - top == 1) {
            out[top] += (int64_t)div_sum((double)x[top], (double)lo, span(r[top] + 1 - lo));
            continue;
        }
        if (lo > 1) {
            if (!recip && !(recip = malloc(CHUNK * sizeof *recip)))
                return -1;
            reciprocals(recip, (double)lo, span(r[top] + 1 - lo));
        }
        mul_rows(x, r, lo == 1 ? table : recip, lo, top, live, out);
    }
    free(recip);
    return 0;
}

/* the entries of one segment of gcdsum_divisor_prefix's sieve, 32 KB in int32 */
#define SEGMENT (1 << 13)

void gcdsum_divisor_prefix(int64_t limit, int64_t *out)
{
    int32_t seg[SEGMENT];
    int64_t total = 0;
    for (int64_t lo = 0; lo <= limit; lo += SEGMENT) {
        int64_t hi = lo + SEGMENT <= limit + 1 ? lo + SEGMENT : limit + 1;
        for (int64_t i = 0; i < hi - lo; i++)
            seg[i] = 0;
        /* the a with a^2 < hi, each from a^2 or its first multiple at or above lo */
        for (int64_t a = 1; a * a < hi; a++) {
            int64_t m = a * a;
            if (m >= lo)
                seg[m - lo] -= 1;
            else
                m = (lo + a - 1) / a * a;
            for (; m < hi; m += a)
                seg[m - lo] += 2;
        }
        for (int64_t i = 0; i < hi - lo; i++)
            out[lo + i] = total += seg[i];
    }
}

/* sum_{r=1..m} m / r: the points r s <= m, a block of r with one quotient at a time */
static uint64_t lattice_count(uint64_t m)
{
    uint64_t total = 0;
    for (uint64_t r = 1, q, hi; r <= m; r = hi + 1) {
        q = m / r;
        hi = m / q;
        total += q * (hi - r + 1);
    }
    return total;
}

uint64_t gcdsum_lemma1(int64_t n, int64_t end)
{
    uint64_t total = 0;
    for (int64_t d = 1; d <= end; d++)
        total += lattice_count((uint64_t)(n / (d * d)));
    return total;
}

int64_t gcdsum_table_sum(int64_t n, int64_t d0, int64_t d1, const int64_t *prefix)
{
    int64_t total = 0;
    for (int64_t d = d0; d < d1; d++)
        total += prefix[n / (d * d)];
    for (int64_t m = 1, end = n / (d1 * d1); m <= end; m++) {
        int64_t q = n / m, s = (int64_t)sqrt((double)q);
        s -= s * s > q;
        total += (prefix[m] - prefix[m - 1]) * (s - d1 + 1);
    }
    return total;
}
