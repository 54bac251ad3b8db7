/**
 * @file
 * AVX2 HAMMER kernels.
 *
 * Compiled with -mavx2 -mpopcnt (this file only); reached only after
 * the tier probe confirms both on the host.  The kernel table is a
 * constant initialiser, so linking this file runs none of its code on
 * older hosts.
 *
 * Only _mm256_mul_pd/add_pd/and_pd touch the scores — no FMA, no
 * horizontal or reassociated sums — so each lane performs the scalar
 * kernel's IEEE-754 operations in the scalar kernel's order.
 */

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>

#include "core/hammer_kernels.hpp"
#include "core/hammer_kernels_layers.hpp"

namespace hammer::core {

namespace {

/** Per-lane popcount of four 64-bit lanes (nibble lookup + SAD). */
inline __m256i
popcount4x64(__m256i v)
{
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nibble = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, nibble);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
    const __m256i bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                          _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/** Popcounts of x ^ y[0..31], one per byte lane (in some order). */
inline __m256i
distances32(__m256i x, const common::Bits *y)
{
    const auto lane = [&](int k) {
        return popcount4x64(_mm256_xor_si256(
            x, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i *>(y + 4 * k))));
    };
    // Each 64-bit lane holds a distance <= 64 in its low byte, so
    // eight vectors pack into the eight bytes of every lane.
    __m256i packed = lane(0);
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(1), 8));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(2), 16));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(3), 24));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(4), 32));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(5), 40));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(6), 48));
    packed = _mm256_or_si256(packed, _mm256_slli_epi64(lane(7), 56));
    return packed;
}

/**
 * Step 1, 32 outcomes per pass: the distances are packed into the
 * byte lanes of one vector and each wanted bin counts its matches
 * with a byte compare.  Byte counters are folded into 64-bit ones
 * (SAD) before they can wrap; the tail uses hardware POPCNT.
 */
void
countDistancesAvx2(common::Bits x, const common::Bits *outcomes,
                   std::size_t count, std::size_t bins,
                   std::uint64_t *counts)
{
    constexpr std::size_t kWrap = 255; // passes per byte-counter fold
    const __m256i xv = _mm256_set1_epi64x(static_cast<long long>(x));
    const __m256i zero = _mm256_setzero_si256();
    __m256i wide[kDistanceBins];
    __m256i narrow[kDistanceBins];
    std::fill(wide, wide + bins, zero);
    std::size_t j = 0;
    while (count - j >= 32) {
        const std::size_t passes = std::min(kWrap, (count - j) / 32);
        std::fill(narrow, narrow + bins, zero);
        for (std::size_t p = 0; p < passes; ++p, j += 32) {
            const __m256i dist = distances32(xv, outcomes + j);
            for (std::size_t d = 0; d < bins; ++d)
                narrow[d] = _mm256_sub_epi8(
                    narrow[d],
                    _mm256_cmpeq_epi8(
                        dist, _mm256_set1_epi8(static_cast<char>(d))));
        }
        for (std::size_t d = 0; d < bins; ++d)
            wide[d] = _mm256_add_epi64(wide[d],
                                       _mm256_sad_epu8(narrow[d], zero));
    }
    for (std::size_t d = 0; d < bins; ++d) {
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), wide[d]);
        counts[d] = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    for (; j < count; ++j) {
        const auto d =
            static_cast<std::size_t>(_mm_popcnt_u64(x ^ outcomes[j]));
        if (d < bins)
            ++counts[d];
    }
}

/**
 * Step 3, 8 rows per pass: lanes 0-3 and 4-7 of two accumulators
 * are the rows' running scores, and one sweep over the run adds
 * every row's k-th term.  A filtered term is masked to +0.0 and a run
 * outcome equal to the row gathers weights[0] == 0, so each lane sees
 * exactly the scalar kernel's additions (x + +0.0 == x for the
 * non-negative scores here).
 */
template <bool Filter>
void
scoreRowsAvx2Impl(const common::Bits *rowOutcomes, const double *rowProbs,
                  std::size_t rows, const common::Bits *runOutcomes,
                  const double *runProbs, std::size_t runLength,
                  const double *weights, double *scores)
{
    for (std::size_t b = 0; b < rows; b += 8) {
        const std::size_t block = std::min<std::size_t>(8, rows - b);
        // A short final block repeats its last row in the spare
        // lanes; their scores are computed and dropped.
        alignas(32) long long xs[8];
        alignas(32) double ps[8];
        for (std::size_t r = 0; r < 8; ++r) {
            const std::size_t i = b + std::min(r, block - 1);
            xs[r] = static_cast<long long>(rowOutcomes[i]);
            ps[r] = rowProbs[i];
        }
        const __m256i x0 =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(xs));
        const __m256i x1 =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(xs + 4));
        const __m256d p0 = _mm256_load_pd(ps);
        const __m256d p1 = _mm256_load_pd(ps + 4);
        __m256d s0 = p0; // Algorithm 1 line 17 seeds with P_in[x].
        __m256d s1 = p1;
        for (std::size_t k = 0; k < runLength; ++k) {
            const __m256i y =
                _mm256_set1_epi64x(static_cast<long long>(runOutcomes[k]));
            const __m256d pj = _mm256_set1_pd(runProbs[k]);
            const __m256i d0 = popcount4x64(_mm256_xor_si256(x0, y));
            const __m256i d1 = popcount4x64(_mm256_xor_si256(x1, y));
            __m256d t0 =
                _mm256_mul_pd(_mm256_i64gather_pd(weights, d0, 8), pj);
            __m256d t1 =
                _mm256_mul_pd(_mm256_i64gather_pd(weights, d1, 8), pj);
            if constexpr (Filter) {
                t0 = _mm256_and_pd(t0, _mm256_cmp_pd(p0, pj, _CMP_GT_OQ));
                t1 = _mm256_and_pd(t1, _mm256_cmp_pd(p1, pj, _CMP_GT_OQ));
            }
            s0 = _mm256_add_pd(s0, t0);
            s1 = _mm256_add_pd(s1, t1);
        }
        alignas(32) double out[8];
        _mm256_store_pd(out, s0);
        _mm256_store_pd(out + 4, s1);
        std::copy(out, out + block, scores + b);
    }
}

void
scoreRowsAvx2(const common::Bits *rowOutcomes, const double *rowProbs,
              std::size_t rows, const common::Bits *runOutcomes,
              const double *runProbs, std::size_t runLength,
              const double *weights, bool filter, double *scores)
{
    if (filter)
        scoreRowsAvx2Impl<true>(rowOutcomes, rowProbs, rows, runOutcomes,
                                runProbs, runLength, weights, scores);
    else
        scoreRowsAvx2Impl<false>(rowOutcomes, rowProbs, rows, runOutcomes,
                                 runProbs, runLength, weights, scores);
}

/** countLayers' vector type: 16 uint16 lanes, levels 0-3 in-register. */
struct LayersAvx2
{
    using Reg = __m256i;
    static constexpr std::size_t width = 16;
    static constexpr int lowLevels = 4;
    static Reg load(const std::uint16_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void store(std::uint16_t *p, Reg v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static Reg zero() { return _mm256_setzero_si256(); }
    static Reg add(Reg a, Reg b) { return _mm256_add_epi16(a, b); }
    static Reg swap(Reg v, int k)
    {
        switch (k) {
        case 0: // adjacent uint16 lanes
            return _mm256_shuffle_epi8(
                v, _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
                                    14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4,
                                    5, 10, 11, 8, 9, 14, 15, 12, 13));
        case 1: // adjacent 32-bit lanes
            return _mm256_shuffle_epi32(v, 0xb1);
        case 2: // adjacent 64-bit lanes
            return _mm256_shuffle_epi32(v, 0x4e);
        default: // the two 128-bit halves
            return _mm256_permute2x128_si256(v, v, 0x01);
        }
    }
};

} // namespace

const HammerKernels kAvx2HammerKernels{
    common::KernelTier::Avx2, countDistancesAvx2,
    layers::countLayers<LayersAvx2>, scoreRowsAvx2};

} // namespace hammer::core

#endif // x86-64
