/**
 * @file
 * SSE2 kernel tier: 2-wide double vectors.
 *
 * Compiled with -msse2 (baseline on x86-64, so this TU is always
 * callable there).  Only mul/add/sub/xor do arithmetic — no FMA, no
 * horizontal ops; the low-mask pair split only moves lanes — so each
 * lane performs exactly the scalar tier's IEEE-754 operation
 * sequence.
 */

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)

#include <emmintrin.h>

#include "sim/kernels.hpp"
#include "sim/kernels_generic.hpp"

namespace hammer::sim {
namespace {

struct VSse2
{
    using Reg = __m128d;
    static constexpr std::size_t width = 2;
    static Reg load(const double *p) { return _mm_loadu_pd(p); }
    static void store(double *p, Reg v) { _mm_storeu_pd(p, v); }
    static Reg set1(double x) { return _mm_set1_pd(x); }
    static Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
    // Sign-bit flip, not 0-x: matches scalar unary minus for +/-0.0.
    static Reg neg(Reg a)
    {
        return _mm_xor_pd(a, _mm_set1_pd(-0.0));
    }

    // Low-mask pair split (kernels_generic.hpp), 4 amplitudes in
    // (a, b): unpacklo/hi take the even / odd lanes.  Its own inverse.
    static constexpr std::size_t pairSplitMasks = 1;
    template <std::size_t M>
    static void pairSplit(Reg a, Reg b, Reg &lo, Reg &hi)
    {
        static_assert(M == 1);
        lo = _mm_unpacklo_pd(a, b);
        hi = _mm_unpackhi_pd(a, b);
    }
};

} // namespace

const KernelTable kSse2Kernels =
    detail::makeKernelTable<VSse2>(KernelTier::Sse2);

} // namespace hammer::sim

#endif // x86-64
