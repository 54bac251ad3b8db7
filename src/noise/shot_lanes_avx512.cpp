/**
 * @file
 * AVX-512 channel shot lanes: 8 chunk streams per zmm.
 *
 * Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq
 * (this file only, and only when the compiler takes those flags);
 * reached only after the tier probe confirms all four on the host.
 * Nothing here needs AVX512DQ: the u64 -> double conversion of a
 * draw is the exact two-halves magic-number form, the xoshiro
 * multiplies are shift-adds.
 */

#if defined(HAMMER_HAVE_AVX512)

// GCC 12's AVX-512 headers seed the pass-through operand of unmasked
// intrinsics with a self-initialised "undefined" vector, which
// -Wmaybe-uninitialized reports at every inlined call.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "noise/shot_lanes_kernel.hpp"

namespace hammer::noise {

namespace {

struct Avx512
{
    using U = __m512i;
    using D = __m512d;
    using M = __mmask8;
    static constexpr int width = 8;

    static U load(const std::uint64_t *p) { return _mm512_loadu_si512(p); }
    static U set1(std::uint64_t v)
    {
        return _mm512_set1_epi64(static_cast<long long>(v));
    }
    static U load32(const std::uint32_t *p)
    {
        return _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }
    static void store32(std::uint32_t *p, U v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p),
                            _mm512_cvtepi64_epi32(v));
    }
    static D loadDraws(const double *p) { return _mm512_loadu_pd(p); }

    static U add(U a, U b) { return _mm512_add_epi64(a, b); }
    static U bitAnd(U a, U b) { return _mm512_and_si512(a, b); }
    static U bitOr(U a, U b) { return _mm512_or_si512(a, b); }
    static U bitXor(U a, U b) { return _mm512_xor_si512(a, b); }
    template <int K> static U shl(U a) { return _mm512_slli_epi64(a, K); }
    template <int K> static U shr(U a) { return _mm512_srli_epi64(a, K); }
    template <int K> static U rotl(U a) { return _mm512_rol_epi64(a, K); }
    static U shrVar(U a, int k)
    {
        return _mm512_srl_epi64(a, _mm_cvtsi32_si128(k));
    }

    static M lt(U a, U b) { return _mm512_cmplt_epi64_mask(a, b); }
    static M eq(U a, U b) { return _mm512_cmpeq_epi64_mask(a, b); }
    static M nonZero(U a) { return _mm512_test_epi64_mask(a, a); }
    static U select(M m, U a, U b)
    {
        return _mm512_mask_blend_epi64(m, a, b);
    }
    static U maskXor(U a, M m, U b)
    {
        return _mm512_mask_xor_epi64(a, m, a, b);
    }
    template <int K> static U maskRotl(U a, M m)
    {
        return _mm512_mask_rol_epi64(a, m, a, K);
    }
    static M maskAnd(M a, M b) { return static_cast<M>(a & b); }
    static M maskAndNot(M a, M b) { return static_cast<M>(a & ~b); }
    static bool any(M m) { return m != 0; }

    static U gather(const std::uint64_t *table, U idx)
    {
        return _mm512_i64gather_epi64(idx, table, 8);
    }
    static D gatherCdf(const double *cdf, U idx)
    {
        return _mm512_i64gather_pd(idx, cdf, 8);
    }
    static M notLess(D r, D v)
    {
        return _mm512_cmp_pd_mask(r, v, _CMP_NLT_UQ);
    }

    /**
     * uniform() * total of raw draw x, rounded exactly as the scalar
     * code rounds it.  k = x >> 11 < 2^53 is split into 32-bit halves
     * set into the mantissas of 2^52 and 2^84; (hi - (2^84 + 2^52)) +
     * lo is exact at each step, so it yields k itself.
     */
    static D toDraw(U x, double total)
    {
        const U k = _mm512_srli_epi64(x, 11);
        const D lo = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_and_si512(k, _mm512_set1_epi64(0xFFFFFFFFll)),
            _mm512_set1_epi64(0x4330000000000000ll)));
        const D hi = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_srli_epi64(k, 32),
            _mm512_set1_epi64(0x4530000000000000ll)));
        const D kd = _mm512_add_pd(
            _mm512_sub_pd(hi, _mm512_set1_pd(0x1.00000001p84)), lo);
        return _mm512_mul_pd(_mm512_mul_pd(kd, _mm512_set1_pd(0x1.0p-53)),
                             _mm512_set1_pd(total));
    }
};

} // namespace

const ShotLanes kAvx512ShotLanes{common::KernelTier::Avx512,
                                 Avx512::width, lanes::run<Avx512>,
                                 lanes::outcomes<Avx512>};

} // namespace hammer::noise

#endif // HAMMER_HAVE_AVX512
