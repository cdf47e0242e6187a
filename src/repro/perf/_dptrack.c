/* Linear-time Bellman forward pass for DP peak tracking (§4.2, Eqns. 6-8).
 *
 * Compiled on demand by repro/perf/dptrack.py (see there for the build
 * and caching story).  One call runs the forward recursion for a whole
 * stack of alignment matrices; dp_backtrace walks the stored
 * backpointers for the whole stack in one call.
 *
 * Contract: per step, with base[l] = score[l] + e_prev[l] and the jump
 * table J[d] = omega*d/(L-1) (the reference's element expression, one
 * entry per lag distance d), column n takes the first l maximizing the
 * float sum base[l] + J[|l-n|], exactly as the reference's (L, L)
 * candidate table and np.argmax do.  Values, backpointers and tie
 * decisions are bit-identical to that reference.
 *
 * Upper envelope: the jump cost is linear in the distance, J[d] ~ -c*d
 * with c = -omega/(L-1) > 0, so column n's winner among l <= n is the
 * argmax of A[l] = base[l] + c*l and among l > n the argmax of
 * B[l] = base[l] - c*l.  A suffix pass keeps the top two B values over
 * l > n, a prefix pass the top two A values over l <= n; together they
 * name each column's winner w and its runner-up in O(L) per step
 * instead of the O(L^2) table sweep.
 *
 * Exactness: the envelope values (computed in double in both twins) are
 * rounded proxies of the real-number candidates base[l] - c*|l-n|, and
 * so are the float sums base[l] + J[d] the contract compares.  Every
 * quantity involved is bounded by M = max|base| + c*L.  A proxy lies
 * within about six double roundings of its real candidate
 * (3*DBL_EPSILON*M); a float sum within one rounding of its own
 * precision for the sum and one for J's cast from the double-built
 * table (EPS*M, plus DBL_EPSILON*M for building J).  So the two orders
 * can only disagree between candidates closer than
 * 2*EPS*M + 8*DBL_EPSILON*M, and delta = (2*EPS + 16*DBL_EPSILON)*M +
 * DBL_MIN (the last term covers underflow) clears that.  When the
 * runner-up trails the winner by more than delta, w is the unique
 * maximizer of the float sums and the column stores base[w] + J[|w-n|]
 * evaluated exactly as the reference does.  Otherwise — exact ties,
 * near-ties, or a non-finite base that turns delta into inf/NaN — the
 * column runs the reference sweep over all l with its strict-greater
 * update, which keeps the first-index tie-break.  The return value
 * counts those exact-sweep columns.
 *
 * Scratch is O(L) on the heap, so any lag count runs natively; a
 * failed allocation returns -1 and the caller falls back to numpy.
 *
 * The float32 twin exists for the opt-in reduced-precision kernel mode
 * (RimConfig.kernel_dtype = "float32"); both twins are stamped out of
 * one macro body so they cannot drift apart; EPS is the epsilon of the
 * evidence type, which bounds the rounding of the float sums.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define DP_FORWARD(NAME, real, EPS)                                          \
int64_t NAME(const real *restrict e, const real *restrict jump,              \
             real *restrict score, int32_t *restrict backptr,                \
             ptrdiff_t n_mat, ptrdiff_t t, ptrdiff_t n_lags, double c)       \
{                                                                            \
    /* Suffix top-2 of B over l > n (stop, ssec, sarg) and base. */          \
    double *stop = malloc((size_t)n_lags * (2 * sizeof(double)               \
                                            + sizeof(real) + sizeof(int32_t))); \
    if (stop == NULL)                                                        \
        return -1;                                                           \
    double *ssec = stop + n_lags;                                            \
    real *base = (real *)(ssec + n_lags);                                    \
    int32_t *sarg = (int32_t *)(base + n_lags);                              \
    int64_t swept = 0;                                                       \
    for (ptrdiff_t p = 0; p < n_mat; ++p) {                                  \
        const real *ep = e + p * t * n_lags;                                 \
        real *sc = score + p * n_lags;                                       \
        for (ptrdiff_t l = 0; l < n_lags; ++l)                               \
            sc[l] = ep[l];                                                   \
        for (ptrdiff_t step = 1; step < t; ++step) {                         \
            const real *eprev = ep + (step - 1) * n_lags;                    \
            const real *ecur = ep + step * n_lags;                           \
            int32_t *bp = backptr + (step * n_mat + p) * n_lags;             \
            double maxabs = 0;                                               \
            for (ptrdiff_t l = 0; l < n_lags; ++l) {                         \
                real b = sc[l] + eprev[l];                                   \
                double a = b < 0 ? -(double)b : (double)b;                   \
                base[l] = b;                                                 \
                /* A NaN sticks, so delta turns NaN and every column */      \
                /* takes the exact sweep. */                                 \
                maxabs = (a > maxabs || a != a) ? a : maxabs;                \
            }                                                                \
            const double delta =                                             \
                (2 * EPS + 16 * DBL_EPSILON) * (maxabs + c * (double)n_lags) \
                + DBL_MIN;                                                   \
            double t1 = -INFINITY, t2 = -INFINITY;                           \
            int32_t i1 = -1;                                                 \
            for (ptrdiff_t n = n_lags - 1; n >= 0; --n) {                    \
                stop[n] = t1;                                                \
                ssec[n] = t2;                                                \
                sarg[n] = i1;                                                \
                double x = base[n] - c * (double)n;                          \
                if (x > t1) {                                                \
                    t2 = t1;                                                 \
                    t1 = x;                                                  \
                    i1 = (int32_t)n;                                         \
                } else if (x > t2) {                                         \
                    t2 = x;                                                  \
                }                                                            \
            }                                                                \
            t1 = -INFINITY;                                                  \
            t2 = -INFINITY;                                                  \
            i1 = -1;                                                         \
            for (ptrdiff_t n = 0; n < n_lags; ++n) {                         \
                const double cn = c * (double)n;                             \
                double x = base[n] + cn;                                     \
                if (x > t1) {                                                \
                    t2 = t1;                                                 \
                    t1 = x;                                                  \
                    i1 = (int32_t)n;                                         \
                } else if (x > t2) {                                         \
                    t2 = x;                                                  \
                }                                                            \
                const double lt = t1 - cn, l2 = t2 - cn;                     \
                const double rt = stop[n] + cn, r2 = ssec[n] + cn;           \
                double top, run;                                             \
                int32_t w;                                                   \
                if (lt >= rt) {                                              \
                    top = lt;                                                \
                    run = l2 > rt ? l2 : rt;                                 \
                    w = i1;                                                  \
                } else {                                                     \
                    top = rt;                                                \
                    run = r2 > lt ? r2 : lt;                                 \
                    w = sarg[n];                                             \
                }                                                            \
                real best;                                                   \
                if (top - run > delta) {                                     \
                    best = base[w] + jump[w > n ? w - n : n - w];            \
                } else {                                                     \
                    /* The reference sweep: strict > keeps the first l. */   \
                    best = base[0] + jump[n];                                \
                    w = 0;                                                   \
                    for (ptrdiff_t l = 1; l < n_lags; ++l) {                 \
                        real v = base[l] + jump[l > n ? l - n : n - l];      \
                        if (v > best) {                                      \
                            best = v;                                        \
                            w = (int32_t)l;                                  \
                        }                                                    \
                    }                                                        \
                    ++swept;                                                 \
                }                                                            \
                bp[n] = w;                                                   \
                sc[n] = best + ecur[n];                                      \
            }                                                                \
        }                                                                    \
    }                                                                        \
    free(stop);                                                              \
    return swept;                                                            \
}

DP_FORWARD(dp_forward_f64, double, DBL_EPSILON)
DP_FORWARD(dp_forward_f32, float, FLT_EPSILON)

/* Walk the stored backpointers from the given terminal columns.
 * lag_indices is (n_mat, t) int64; lag_indices[p][t-1] must hold the
 * argmax of the final score row on entry (numpy computes it — its
 * first-index tie-break over a contiguous row is the contract). */
void dp_backtrace(const int32_t *restrict backptr,
                  int64_t *restrict lag_indices, ptrdiff_t n_mat,
                  ptrdiff_t t, ptrdiff_t n_lags)
{
    for (ptrdiff_t p = 0; p < n_mat; ++p) {
        int64_t *lp = lag_indices + p * t;
        int64_t cur = lp[t - 1];
        for (ptrdiff_t step = t - 1; step > 0; --step) {
            cur = backptr[(step * n_mat + p) * n_lags + cur];
            lp[step - 1] = cur;
        }
    }
}
