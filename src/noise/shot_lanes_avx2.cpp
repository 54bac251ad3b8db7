/**
 * @file
 * AVX2 channel shot lanes: 4 chunk streams per ymm.
 *
 * Compiled with -mavx2 (this file only).  Masks are all-ones u64
 * lanes; compares are signed, which is exact because every value
 * compared (53-bit draws, bounds up to 2^53, shot counts, CDF
 * indices) is below 2^63.  Rotates are shift-or pairs.
 */

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)

#include <immintrin.h>

#include "noise/shot_lanes_kernel.hpp"

namespace hammer::noise {

namespace {

struct Avx2
{
    using U = __m256i;
    using D = __m256d;
    using M = __m256i;
    static constexpr int width = 4;

    static U load(const std::uint64_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static U set1(std::uint64_t v)
    {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }
    static U load32(const std::uint32_t *p)
    {
        return _mm256_cvtepu32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    static void store32(std::uint32_t *p, U v)
    {
        // The low dword of each u64 lane, packed into the low half.
        const U packed = _mm256_permutevar8x32_epi32(
            v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p),
                         _mm256_castsi256_si128(packed));
    }
    static D loadDraws(const double *p) { return _mm256_loadu_pd(p); }

    static U add(U a, U b) { return _mm256_add_epi64(a, b); }
    static U bitAnd(U a, U b) { return _mm256_and_si256(a, b); }
    static U bitOr(U a, U b) { return _mm256_or_si256(a, b); }
    static U bitXor(U a, U b) { return _mm256_xor_si256(a, b); }
    template <int K> static U shl(U a) { return _mm256_slli_epi64(a, K); }
    template <int K> static U shr(U a) { return _mm256_srli_epi64(a, K); }
    template <int K> static U rotl(U a)
    {
        return _mm256_or_si256(_mm256_slli_epi64(a, K),
                               _mm256_srli_epi64(a, 64 - K));
    }
    static U shrVar(U a, int k)
    {
        return _mm256_srl_epi64(a, _mm_cvtsi32_si128(k));
    }

    static M lt(U a, U b) { return _mm256_cmpgt_epi64(b, a); }
    static M eq(U a, U b) { return _mm256_cmpeq_epi64(a, b); }
    static M nonZero(U a)
    {
        return _mm256_xor_si256(
            _mm256_cmpeq_epi64(a, _mm256_setzero_si256()),
            _mm256_set1_epi64x(-1));
    }
    static U select(M m, U a, U b) { return _mm256_blendv_epi8(a, b, m); }
    static U maskXor(U a, M m, U b)
    {
        return _mm256_xor_si256(a, _mm256_and_si256(b, m));
    }
    template <int K> static U maskRotl(U a, M m)
    {
        return _mm256_blendv_epi8(a, rotl<K>(a), m);
    }
    static M maskAnd(M a, M b) { return _mm256_and_si256(a, b); }
    static M maskAndNot(M a, M b) { return _mm256_andnot_si256(b, a); }
    static bool any(M m) { return !_mm256_testz_si256(m, m); }

    static U gather(const std::uint64_t *table, U idx)
    {
        return _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(table), idx, 8);
    }
    static D gatherCdf(const double *cdf, U idx)
    {
        return _mm256_i64gather_pd(cdf, idx, 8);
    }
    static M notLess(D r, D v)
    {
        return _mm256_castpd_si256(_mm256_cmp_pd(r, v, _CMP_NLT_UQ));
    }

    /** Avx512::toDraw's exact conversion, on 4 lanes. */
    static D toDraw(U x, double total)
    {
        const U k = _mm256_srli_epi64(x, 11);
        const D lo = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(k, _mm256_set1_epi64x(0xFFFFFFFFll)),
            _mm256_set1_epi64x(0x4330000000000000ll)));
        const D hi = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_srli_epi64(k, 32),
            _mm256_set1_epi64x(0x4530000000000000ll)));
        const D kd = _mm256_add_pd(
            _mm256_sub_pd(hi, _mm256_set1_pd(0x1.00000001p84)), lo);
        return _mm256_mul_pd(_mm256_mul_pd(kd, _mm256_set1_pd(0x1.0p-53)),
                             _mm256_set1_pd(total));
    }
};

} // namespace

const ShotLanes kAvx2ShotLanes{common::KernelTier::Avx2, Avx2::width,
                               lanes::run<Avx2>, lanes::outcomes<Avx2>};

} // namespace hammer::noise

#endif // x86-64
