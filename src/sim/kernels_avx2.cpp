/**
 * @file
 * AVX2 kernel tier: 4-wide double vectors.
 *
 * Compiled with -mavx2; callable only after the CPUID probe confirms
 * host support (kernel_table.cpp).  The table initialiser is a
 * constant expression, so merely linking this TU executes no AVX2
 * instructions on older hosts.
 *
 * Only _mm256_mul_pd/add_pd/sub_pd/xor_pd do arithmetic —
 * deliberately no FMA even where the host has it, because contracted
 * a*b+c rounds once instead of twice and would break bit-identity
 * with the scalar tier.  The low-mask pair split only moves lanes.
 */

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)

#include <immintrin.h>

#include "sim/kernels.hpp"
#include "sim/kernels_generic.hpp"

namespace hammer::sim {
namespace {

struct VAvx2
{
    using Reg = __m256d;
    static constexpr std::size_t width = 4;
    static Reg load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, Reg v) { _mm256_storeu_pd(p, v); }
    static Reg set1(double x) { return _mm256_set1_pd(x); }
    static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
    // Sign-bit flip, not 0-x: matches scalar unary minus for +/-0.0.
    static Reg neg(Reg a)
    {
        return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
    }

    // Low-mask pair split (kernels_generic.hpp), 8 amplitudes in
    // (a, b).  Mask 1: unpacklo/hi take the even / odd lanes of each
    // 128-bit half.  Mask 2: permute2f128 takes the low / high 128-bit
    // halves.  Each is its own inverse.
    static constexpr std::size_t pairSplitMasks = 1 | 2;
    template <std::size_t M>
    static void pairSplit(Reg a, Reg b, Reg &lo, Reg &hi)
    {
        if constexpr (M == 1) {
            lo = _mm256_unpacklo_pd(a, b);
            hi = _mm256_unpackhi_pd(a, b);
        } else {
            lo = _mm256_permute2f128_pd(a, b, 0x20);
            hi = _mm256_permute2f128_pd(a, b, 0x31);
        }
    }
};

} // namespace

const KernelTable kAvx2Kernels =
    detail::makeKernelTable<VAvx2>(KernelTier::Avx2);

} // namespace hammer::sim

#endif // x86-64
