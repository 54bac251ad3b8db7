/**
 * @file
 * Templated SoA gate kernels, shared by every ISA tier.
 *
 * Each kernel is written once against a tiny vector abstraction V
 * (width / load / store / set1 / add / sub / mul / neg) and
 * instantiated per tier, so all tiers execute exactly the same
 * per-lane IEEE-754 operations in the same order — the bit-identity
 * contract between tiers holds by construction, not by testing luck
 * (the tests pin it anyway).  The per-lane formulas are the exact
 * textbook complex arithmetic the historical interleaved kernels
 * performed; see statevector.hpp for the kernel taxonomy.
 *
 * Iteration shapes:
 *
 *  - 1q kernels walk the |0> half in half-space blocks
 *    (base += mask<<1, i in [base, base+mask)); the inner run is
 *    contiguous, so it vectorises when mask >= V::width.  Below that
 *    a tier that declares a pair split (pairSplitMasks) regroups two
 *    registers into |0> members and partners by shuffles alone;
 *    otherwise the same formulas run one lane at a time.  Every walk
 *    calls one per-lane body per kernel, so all are bit-identical:
 *    same operations, same order.
 *  - 2q kernels enumerate the quarter space with both qubit bits
 *    clear via a hi/mid/lo triple loop whose innermost run is
 *    contiguous with length min(mask_a, mask_b) — same ascending
 *    index order as the historical bit-insertion enumeration, without
 *    the per-index shifts.
 *  - batched kernels add an innermost lane loop over the row stride;
 *    the stride is a multiple of every tier's width
 *    (kBatchLaneMultiple), so the lane loop is always full vectors.
 *
 * NOT included here: norm accumulation and CDF sampling.  Those are
 * ordered reductions; they stay scalar-sequential in StateVector so
 * results remain bit-identical to the historical engine.
 */

#ifndef HAMMER_SIM_KERNELS_GENERIC_HPP
#define HAMMER_SIM_KERNELS_GENERIC_HPP

#include <cstddef>

#include "sim/kernels.hpp"

#define HAMMER_RESTRICT __restrict

namespace hammer::sim::detail {

/** Width-1 "vector": the scalar tier and every small-mask fallback. */
struct VScalar
{
    using Reg = double;
    static constexpr std::size_t width = 1;
    static Reg load(const double *p) { return *p; }
    static void store(double *p, Reg v) { *p = v; }
    static Reg set1(double x) { return x; }
    static Reg add(Reg a, Reg b) { return a + b; }
    static Reg sub(Reg a, Reg b) { return a - b; }
    static Reg mul(Reg a, Reg b) { return a * b; }
    static Reg neg(Reg a) { return -a; }
};

// ---------------------------------------------------------------------------
// Per-lane 1q formulas
//
// Each body updates one vector of pairs in place: a0 holds |0>
// members, a1 their |1> partners, one register per component plane.
// The single-state walks and the batched walks below all run these
// same bodies, so every path performs the same IEEE-754 operations
// per amplitude in the same order.
// ---------------------------------------------------------------------------

/** Dense 2x2: a0' = m00 a0 + m01 a1, a1' = m10 a0 + m11 a1. */
template <typename V>
struct Dense1q
{
    using Reg = typename V::Reg;
    Reg m0r, m0i, m1r, m1i, m2r, m2i, m3r, m3i;

    explicit Dense1q(const double *HAMMER_RESTRICT m)
        : m0r(V::set1(m[0])), m0i(V::set1(m[1])), m1r(V::set1(m[2])),
          m1i(V::set1(m[3])), m2r(V::set1(m[4])), m2i(V::set1(m[5])),
          m3r(V::set1(m[6])), m3i(V::set1(m[7]))
    {
    }

    void operator()(Reg &a0r, Reg &a0i, Reg &a1r, Reg &a1i) const
    {
        const Reg r0 = V::add(V::sub(V::mul(m0r, a0r), V::mul(m0i, a0i)),
                              V::sub(V::mul(m1r, a1r), V::mul(m1i, a1i)));
        const Reg i0 = V::add(V::add(V::mul(m0r, a0i), V::mul(m0i, a0r)),
                              V::add(V::mul(m1r, a1i), V::mul(m1i, a1r)));
        const Reg r1 = V::add(V::sub(V::mul(m2r, a0r), V::mul(m2i, a0i)),
                              V::sub(V::mul(m3r, a1r), V::mul(m3i, a1i)));
        const Reg i1 = V::add(V::add(V::mul(m2r, a0i), V::mul(m2i, a0r)),
                              V::add(V::mul(m3r, a1i), V::mul(m3i, a1r)));
        a0r = r0;
        a0i = i0;
        a1r = r1;
        a1i = i1;
    }
};

/** diag(d0, d1): each member times its own entry. */
template <typename V>
struct Diag1q
{
    using Reg = typename V::Reg;
    Reg d0r, d0i, d1r, d1i;

    explicit Diag1q(const double *HAMMER_RESTRICT d)
        : d0r(V::set1(d[0])), d0i(V::set1(d[1])), d1r(V::set1(d[2])),
          d1i(V::set1(d[3]))
    {
    }

    void operator()(Reg &a0r, Reg &a0i, Reg &a1r, Reg &a1i) const
    {
        const Reg r0 = V::sub(V::mul(d0r, a0r), V::mul(d0i, a0i));
        const Reg i0 = V::add(V::mul(d0r, a0i), V::mul(d0i, a0r));
        const Reg r1 = V::sub(V::mul(d1r, a1r), V::mul(d1i, a1i));
        const Reg i1 = V::add(V::mul(d1r, a1i), V::mul(d1i, a1r));
        a0r = r0;
        a0i = i0;
        a1r = r1;
        a1i = i1;
    }
};

/** diag(1, p): only the |1> member changes, so this body takes one. */
template <typename V>
struct Phase1q
{
    using Reg = typename V::Reg;
    Reg pr, pi;

    Phase1q(double p_re, double p_im) : pr(V::set1(p_re)), pi(V::set1(p_im))
    {
    }

    void operator()(Reg &ar, Reg &ai) const
    {
        const Reg r = V::sub(V::mul(pr, ar), V::mul(pi, ai));
        const Reg i = V::add(V::mul(pr, ai), V::mul(pi, ar));
        ar = r;
        ai = i;
    }

    /** Pair form for the split walk: a0 passes through unchanged. */
    void operator()(Reg &, Reg &, Reg &a1r, Reg &a1i) const
    {
        (*this)(a1r, a1i);
    }
};

/** Pauli X: the members trade places. */
template <typename V>
struct X1q
{
    using Reg = typename V::Reg;

    void operator()(Reg &a0r, Reg &a0i, Reg &a1r, Reg &a1i) const
    {
        const Reg tr = a0r, ti = a0i;
        a0r = a1r;
        a0i = a1i;
        a1r = tr;
        a1i = ti;
    }
};

/**
 * Pauli Y = [[0, -i], [i, 0]]: a0' = -i*a1, a1' = i*a0 — component
 * shuffles and sign flips, no multiplies.
 */
template <typename V>
struct Y1q
{
    using Reg = typename V::Reg;

    void operator()(Reg &a0r, Reg &a0i, Reg &a1r, Reg &a1i) const
    {
        const Reg r0 = a1i, i0 = V::neg(a1r);
        const Reg r1 = V::neg(a0i), i1 = a0r;
        a0r = r0;
        a0i = i0;
        a1r = r1;
        a1i = i1;
    }
};

// ---------------------------------------------------------------------------
// Single-state 1q walks (planes of length dim)
// ---------------------------------------------------------------------------

/** mask >= W::width: vectors of |0> members, partners at +mask. */
template <typename W, typename Body>
inline void
pairRuns(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t mask, const Body body)
{
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; i += W::width) {
            const std::size_t j = i | mask;
            auto a0r = W::load(re + i);
            auto a0i = W::load(im + i);
            auto a1r = W::load(re + j);
            auto a1i = W::load(im + j);
            body(a0r, a0i, a1r, a1i);
            W::store(re + i, a0r);
            W::store(im + i, a0i);
            W::store(re + j, a1r);
            W::store(im + j, a1i);
        }
    }
}

/** Same shape over the |1> half only (phase kernels). */
template <typename W, typename Body>
inline void
halfRuns(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t mask, const Body body)
{
    for (std::size_t base = mask; base < dim; base += mask << 1) {
        for (std::size_t j = base; j < base + mask; j += W::width) {
            auto ar = W::load(re + j);
            auto ai = W::load(im + j);
            body(ar, ai);
            W::store(re + j, ar);
            W::store(im + j, ai);
        }
    }
}

/** One split walk over 2*width amplitudes per step (mask M). */
template <typename V, std::size_t M, typename Body>
inline void
splitRuns(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
          std::size_t dim, const Body body)
{
    for (std::size_t i = 0; i < dim; i += 2 * V::width) {
        typename V::Reg a0r, a1r, a0i, a1i, lo, hi;
        V::template pairSplit<M>(V::load(re + i),
                                 V::load(re + i + V::width), a0r, a1r);
        V::template pairSplit<M>(V::load(im + i),
                                 V::load(im + i + V::width), a0i, a1i);
        body(a0r, a0i, a1r, a1i);
        V::template pairSplit<M>(a0r, a1r, lo, hi);
        V::store(re + i, lo);
        V::store(re + i + V::width, hi);
        V::template pairSplit<M>(a0i, a1i, lo, hi);
        V::store(im + i, lo);
        V::store(im + i + V::width, hi);
    }
}

/**
 * mask < V::width: both members of a pair sit in one register.  A
 * tier opts in by declaring pairSplitMasks (the masks it handles) and
 * pairSplit<M>(a, b, lo, hi): register shuffles that regroup the
 * 2*width consecutive amplitudes in (a, b) into |0> members (lo) and
 * their partners (hi), lane for lane.  The shuffle is its own
 * inverse, so the same call puts the results back in index order.
 * Returns false — the caller takes the scalar walk — when the tier
 * has no split for @p mask or the state is narrower than two
 * registers.
 */
template <typename V, typename Body>
inline bool
splitPairs([[maybe_unused]] double *HAMMER_RESTRICT re,
           [[maybe_unused]] double *HAMMER_RESTRICT im,
           [[maybe_unused]] std::size_t dim,
           [[maybe_unused]] std::size_t mask,
           [[maybe_unused]] const Body body)
{
    if constexpr (requires { V::pairSplitMasks; }) {
        if (dim < 2 * V::width || (mask & V::pairSplitMasks) == 0)
            return false;
        if (mask == 1) {
            splitRuns<V, 1>(re, im, dim, body);
        } else if constexpr ((V::pairSplitMasks & 2) != 0) {
            splitRuns<V, 2>(re, im, dim, body);
        }
        return true;
    }
    return false;
}

/**
 * One 1q kernel over the three walks: full vectors when the pair
 * stride allows, the tier's register split below that, and the
 * identical formulas one lane at a time otherwise.
 */
template <typename V, template <typename> class Body, typename... Args>
inline void
pairKernel(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
           std::size_t dim, std::size_t mask, const Args &...args)
{
    if (mask >= V::width) {
        pairRuns<V>(re, im, dim, mask, Body<V>(args...));
        return;
    }
    if (splitPairs<V>(re, im, dim, mask, Body<V>(args...)))
        return;
    pairRuns<VScalar>(re, im, dim, mask, Body<VScalar>(args...));
}

template <typename V>
inline void
apply1qT(double *re, double *im, std::size_t dim, std::size_t mask,
         const double *m)
{
    pairKernel<V, Dense1q>(re, im, dim, mask, m);
}

template <typename V>
inline void
applyDiagT(double *re, double *im, std::size_t dim, std::size_t mask,
           const double *d)
{
    pairKernel<V, Diag1q>(re, im, dim, mask, d);
}

template <typename V>
inline void
applyPhaseT(double *re, double *im, std::size_t dim, std::size_t mask,
            double pr, double pi)
{
    // Only the |1> half carries the phase; the |0> half is untouched
    // (the split walk moves it through registers unchanged).
    if (mask >= V::width) {
        halfRuns<V>(re, im, dim, mask, Phase1q<V>(pr, pi));
        return;
    }
    if (splitPairs<V>(re, im, dim, mask, Phase1q<V>(pr, pi)))
        return;
    halfRuns<VScalar>(re, im, dim, mask, Phase1q<VScalar>(pr, pi));
}

template <typename V>
inline void
applyXT(double *re, double *im, std::size_t dim, std::size_t mask)
{
    pairKernel<V, X1q>(re, im, dim, mask);
}

template <typename V>
inline void
applyYT(double *re, double *im, std::size_t dim, std::size_t mask)
{
    pairKernel<V, Y1q>(re, im, dim, mask);
}

/**
 * Quarter-space enumeration for the 2q kernels: BODY(i0) runs for
 * every index with both qubit bits clear, ascending, with contiguous
 * innermost runs of length lo = min(mask_a, mask_b).
 */
#define HAMMER_FOR_QUARTER(lo, hi, dim, step, ...)                     \
    for (std::size_t bh_ = 0; bh_ < (dim); bh_ += (hi) << 1)           \
        for (std::size_t bm_ = bh_; bm_ < bh_ + (hi);                  \
             bm_ += (lo) << 1)                                         \
            for (std::size_t i0 = bm_; i0 < bm_ + (lo); i0 += (step)) {\
                __VA_ARGS__                                            \
            }

template <typename V>
inline void
applyCXT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t cmask, std::size_t tmask)
{
    const std::size_t lo = cmask < tmask ? cmask : tmask;
    const std::size_t hi = cmask < tmask ? tmask : cmask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t i = i0 | cmask;
            const std::size_t j = i | tmask;
            const auto ar = V::load(re + i);
            const auto ai = V::load(im + i);
            V::store(re + i, V::load(re + j));
            V::store(im + i, V::load(im + j));
            V::store(re + j, ar);
            V::store(im + j, ai);
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | cmask;
        const std::size_t j = i | tmask;
        const double tr = re[i], ti = im[i];
        re[i] = re[j];
        im[i] = im[j];
        re[j] = tr;
        im[j] = ti;
    })
}

template <typename V>
inline void
applyCZT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t amask, std::size_t bmask)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    const std::size_t both = amask | bmask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t k = i0 | both;
            V::store(re + k, V::neg(V::load(re + k)));
            V::store(im + k, V::neg(V::load(im + k)));
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t k = i0 | both;
        re[k] = -re[k];
        im[k] = -im[k];
    })
}

template <typename V>
inline void
applySwapT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
           std::size_t dim, std::size_t amask, std::size_t bmask)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t i = i0 | amask;
            const std::size_t j = i0 | bmask;
            const auto ar = V::load(re + i);
            const auto ai = V::load(im + i);
            V::store(re + i, V::load(re + j));
            V::store(im + i, V::load(im + j));
            V::store(re + j, ar);
            V::store(im + j, ai);
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | amask;
        const std::size_t j = i0 | bmask;
        const double tr = re[i], ti = im[i];
        re[i] = re[j];
        im[i] = im[j];
        re[j] = tr;
        im[j] = ti;
    })
}

// ---------------------------------------------------------------------------
// Batched kernels (dim amplitude rows of `stride` doubles each)
//
// The lane loop is the innermost dimension and stride is a multiple
// of every tier's width, so these never need a scalar tail: padding
// lanes are zero-initialised and every kernel maps zero to zero.
// ---------------------------------------------------------------------------

/** Batched pair walk: the lane loop runs innermost, full vectors. */
template <typename V, typename Body>
inline void
batchPairRuns(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
              std::size_t dim, std::size_t mask, std::size_t stride,
              const Body body)
{
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; ++i) {
            const std::size_t j = i | mask;
            double *HAMMER_RESTRICT r0 = re + i * stride;
            double *HAMMER_RESTRICT c0 = im + i * stride;
            double *HAMMER_RESTRICT r1 = re + j * stride;
            double *HAMMER_RESTRICT c1 = im + j * stride;
            for (std::size_t s = 0; s < stride; s += V::width) {
                auto a0r = V::load(r0 + s);
                auto a0i = V::load(c0 + s);
                auto a1r = V::load(r1 + s);
                auto a1i = V::load(c1 + s);
                body(a0r, a0i, a1r, a1i);
                V::store(r0 + s, a0r);
                V::store(c0 + s, a0i);
                V::store(r1 + s, a1r);
                V::store(c1 + s, a1i);
            }
        }
    }
}

template <typename V>
inline void
batch1qT(double *re, double *im, std::size_t dim, std::size_t mask,
         std::size_t stride, const double *m)
{
    batchPairRuns<V>(re, im, dim, mask, stride, Dense1q<V>(m));
}

template <typename V>
inline void
batchDiagT(double *re, double *im, std::size_t dim, std::size_t mask,
           std::size_t stride, const double *d)
{
    batchPairRuns<V>(re, im, dim, mask, stride, Diag1q<V>(d));
}

template <typename V>
inline void
batchPhaseT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
            std::size_t dim, std::size_t mask, std::size_t stride,
            double pr, double pi)
{
    const Phase1q<V> phase(pr, pi);
    for (std::size_t base = mask; base < dim; base += mask << 1) {
        for (std::size_t j = base; j < base + mask; ++j) {
            double *HAMMER_RESTRICT r1 = re + j * stride;
            double *HAMMER_RESTRICT c1 = im + j * stride;
            for (std::size_t s = 0; s < stride; s += V::width) {
                auto ar = V::load(r1 + s);
                auto ai = V::load(c1 + s);
                phase(ar, ai);
                V::store(r1 + s, ar);
                V::store(c1 + s, ai);
            }
        }
    }
}

template <typename V>
inline void
batchXT(double *re, double *im, std::size_t dim, std::size_t mask,
        std::size_t stride)
{
    batchPairRuns<V>(re, im, dim, mask, stride, X1q<V>());
}

template <typename V>
inline void
batchYT(double *re, double *im, std::size_t dim, std::size_t mask,
        std::size_t stride)
{
    batchPairRuns<V>(re, im, dim, mask, stride, Y1q<V>());
}

template <typename V>
inline void
batchCXT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t cmask, std::size_t tmask,
         std::size_t stride)
{
    const std::size_t lo = cmask < tmask ? cmask : tmask;
    const std::size_t hi = cmask < tmask ? tmask : cmask;
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | cmask;
        const std::size_t j = i | tmask;
        double *HAMMER_RESTRICT r0 = re + i * stride;
        double *HAMMER_RESTRICT c0 = im + i * stride;
        double *HAMMER_RESTRICT r1 = re + j * stride;
        double *HAMMER_RESTRICT c1 = im + j * stride;
        for (std::size_t s = 0; s < stride; s += V::width) {
            const auto ar = V::load(r0 + s);
            const auto ai = V::load(c0 + s);
            V::store(r0 + s, V::load(r1 + s));
            V::store(c0 + s, V::load(c1 + s));
            V::store(r1 + s, ar);
            V::store(c1 + s, ai);
        }
    })
}

template <typename V>
inline void
batchCZT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t amask, std::size_t bmask,
         std::size_t stride)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    const std::size_t both = amask | bmask;
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t k = i0 | both;
        double *HAMMER_RESTRICT r1 = re + k * stride;
        double *HAMMER_RESTRICT c1 = im + k * stride;
        for (std::size_t s = 0; s < stride; s += V::width) {
            V::store(r1 + s, V::neg(V::load(r1 + s)));
            V::store(c1 + s, V::neg(V::load(c1 + s)));
        }
    })
}

template <typename V>
inline void
batchSwapT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
           std::size_t dim, std::size_t amask, std::size_t bmask,
           std::size_t stride)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | amask;
        const std::size_t j = i0 | bmask;
        double *HAMMER_RESTRICT r0 = re + i * stride;
        double *HAMMER_RESTRICT c0 = im + i * stride;
        double *HAMMER_RESTRICT r1 = re + j * stride;
        double *HAMMER_RESTRICT c1 = im + j * stride;
        for (std::size_t s = 0; s < stride; s += V::width) {
            const auto ar = V::load(r0 + s);
            const auto ai = V::load(c0 + s);
            V::store(r0 + s, V::load(r1 + s));
            V::store(c0 + s, V::load(c1 + s));
            V::store(r1 + s, ar);
            V::store(c1 + s, ai);
        }
    })
}

#undef HAMMER_FOR_QUARTER

/** Fill a tier's KernelTable from the template instantiations. */
template <typename V>
constexpr KernelTable
makeKernelTable(KernelTier tier)
{
    return KernelTable{
        tier,
        static_cast<int>(V::width),
        &apply1qT<V>,
        &applyDiagT<V>,
        &applyPhaseT<V>,
        &applyXT<V>,
        &applyYT<V>,
        &applyCXT<V>,
        &applyCZT<V>,
        &applySwapT<V>,
        &batch1qT<V>,
        &batchDiagT<V>,
        &batchPhaseT<V>,
        &batchXT<V>,
        &batchYT<V>,
        &batchCXT<V>,
        &batchCZT<V>,
        &batchSwapT<V>,
    };
}

} // namespace hammer::sim::detail

#endif // HAMMER_SIM_KERNELS_GENERIC_HPP
