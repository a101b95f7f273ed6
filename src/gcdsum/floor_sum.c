/* The compiled kernel of gcdsum.summatory.floor_sum.

   gcdsum_floor_sum writes out[i] = sum_{k=1..r_i} x_i // k for every row
   of a non-increasing batch with 0 <= x_i <= MAX_X; the Python caller adds
   the rows as Python ints.  It keeps the NumPy kernel's loop order, chunks
   of `chunk` values of k outside and the rows that reach a chunk inside,
   and its three routes, whose exactness proofs are in floor_sum's
   docstring:

       x_i < recip_x          floor(x_i * r_k), r_k = fl(fl(1/k) (1 + 2^-50)),
                              read from `table` for k <= chunk
       recip_x <= x_i < 2^53  floor(x_i / k) in double
       2^53 <= x_i            x_i / k in int64, as is the first chunk of
                              every row at or above recip_x

   The proofs assume that every product, quotient and floor is one
   correctly rounded IEEE operation, so this file is built with
   -ffp-contract=off and without -ffast-math or any of its parts.  The only
   reordering is the vectorized sum that `#pragma omp simd reduction` allows
   under -fopenmp-simd.  It adds integer-valued doubles, and every partial
   sum of a chunk's terms is at most the chunk's sum, below 2^53 by the
   docstring's bounds, so every order gives the same exact sum.  A row's
   sum is at most D(x_i) < 2^63 for x_i <= MAX_X, so out[i] cannot wrap.

   On x86-64 the loops are cloned for x86-64-v3 (AVX2) and x86-64-v2.  The
   baseline clone, which target_clones requires, cannot vectorize floor
   without SSE4.1's roundpd and is slower than the NumPy kernel, so the
   loader takes the NumPy kernel on a CPU that gcdsum_supported rejects.
   gcdsum_floor_sum returns 0, or -1 when the buffer of a later chunk's
   reciprocals cannot be allocated. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "arch=x86-64-v2", "default")))
#else
#define CLONES
#endif

int gcdsum_supported(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.1") != 0;
#else
    return 1;
#endif
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
static inline int span(int64_t n, int64_t chunk)
{
    return (int)(n < chunk ? n : chunk);
}

CLONES
int gcdsum_floor_sum(int64_t rows, const int64_t *x, const int64_t *r, const double *table,
                     int64_t chunk, int64_t recip_x, int64_t *out)
{
    /* rows [0, ints) take the int64 route, rows [ints, divs) the float
       divide and rows [divs, rows) the reciprocal products; each route runs
       in a loop of its own, which lets GCC vectorize the reductions */
    int64_t ints = 0, divs, live = rows, i;
    double *recip = NULL;
    while (ints < rows && x[ints] >= (INT64_C(1) << 53))
        ints++;
    for (divs = ints; divs < rows && x[divs] >= recip_x; divs++)
        ;
    for (i = 0; i < divs; i++)
        out[i] = int_sum(x[i], 1, span(r[i], chunk));
    for (i = divs; i < rows; i++)
        out[i] = (int64_t)mul_sum((double)x[i], table, span(r[i], chunk));
    for (int64_t lo = chunk + 1; rows && lo <= r[0]; lo += chunk) {
        /* the rows with r_i >= lo, a prefix; rows [muls, live) share one
           chunk of reciprocals when there are two or more of them */
        while (r[live - 1] < lo)
            live--;
        int64_t muls = live - divs > 1 ? divs : live;
        double klo = (double)lo;
        if (muls < live) {
            int n = span(r[muls] + 1 - lo, chunk);
            if (!recip && !(recip = malloc((size_t)chunk * sizeof *recip)))
                return -1;
#pragma omp simd
            for (int j = 0; j < n; j++)
                recip[j] = 1.0 / (klo + j) * (1 + 0x1p-50);
        }
        for (i = 0; i < live && i < ints; i++)
            out[i] += int_sum(x[i], lo, span(r[i] + 1 - lo, chunk));
        for (i = ints; i < muls; i++)
            out[i] += (int64_t)div_sum((double)x[i], klo, span(r[i] + 1 - lo, chunk));
        for (i = muls; i < live; i++)
            out[i] += (int64_t)mul_sum((double)x[i], recip, span(r[i] + 1 - lo, chunk));
    }
    free(recip);
    return 0;
}
