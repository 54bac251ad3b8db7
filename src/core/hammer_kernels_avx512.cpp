/**
 * @file
 * AVX-512 HAMMER kernels.
 *
 * Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq
 * (this file only, and only when the compiler takes those flags);
 * reached only after the tier probe confirms all four on the host.
 * The kernel table is a constant initialiser, so linking this file
 * runs none of its code on older hosts.
 *
 * Only _mm512_mul_pd and (masked) _mm512_add_pd touch the scores — no
 * FMA, no horizontal or reassociated sums — so each lane performs the
 * scalar kernel's IEEE-754 operations in the scalar kernel's order.
 */

#if defined(HAMMER_HAVE_AVX512)

// GCC 12's AVX-512 headers seed the pass-through operand of unmasked
// intrinsics with a self-initialised "undefined" vector, which
// -Wmaybe-uninitialized reports at every inlined call.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <algorithm>
#include <utility>

#include "core/hammer_kernels.hpp"
#include "core/hammer_kernels_layers.hpp"

namespace hammer::core {

namespace {

/**
 * Popcounts of x ^ y[0..63], one per byte lane (in some order).
 *
 * vpopcntq leaves each distance (<= 64) in the low byte of a 64-bit
 * lane, so eight vectors pack into the eight bytes of every lane by
 * shifts and three-way ORs (vpternlogq).  vpmovqb + inserts would
 * pack them too, but vpmovqb is two uops on the port that vpopcntq
 * and the byte compares also need: on a 4-CPU AVX-512 Xeon the
 * shift packing runs Step 1 about 25% faster.
 */
inline __m512i
distances64(__m512i x, const common::Bits *y)
{
    const auto lane = [&](int k, int shift) {
        return _mm512_slli_epi64(
            _mm512_popcnt_epi64(_mm512_xor_si512(
                x, _mm512_loadu_si512(y + 8 * k))),
            shift);
    };
    constexpr int kOr3 = 0xfe; // vpternlogq truth table of a | b | c
    const __m512i a =
        _mm512_ternarylogic_epi64(lane(0, 0), lane(1, 8), lane(2, 16), kOr3);
    const __m512i b = _mm512_ternarylogic_epi64(lane(3, 24), lane(4, 32),
                                                lane(5, 40), kOr3);
    return _mm512_ternarylogic_epi64(
        a, b, _mm512_or_si512(lane(6, 48), lane(7, 56)), kOr3);
}

/**
 * Adds one to byte lane l of narrow[d] for every d < bins with
 * dist[l] == d.  The expansion over D is explicit so the counters
 * stay in registers; D >= bins drops out at run time.
 */
template <std::size_t... D>
inline void
countBins(__m512i dist, std::size_t bins, __m512i *narrow,
          std::index_sequence<D...>)
{
    const __m512i one = _mm512_set1_epi8(1);
    ((D < bins
          ? void(narrow[D] = _mm512_mask_add_epi8(
                     narrow[D],
                     _mm512_cmpeq_epi8_mask(
                         dist, _mm512_set1_epi8(static_cast<char>(D))),
                     narrow[D], one))
          : void()),
     ...);
}

/**
 * Step 1, 64 outcomes per pass: the distances are packed into the 64
 * byte lanes of one vector and each wanted bin counts its matches
 * with a byte compare into a mask and a masked byte add.  Byte
 * counters are folded into 64-bit ones (SAD) before they can wrap;
 * the tail uses hardware POPCNT.  MaxBins >= bins bounds the
 * unrolled bin loop.
 */
template <std::size_t MaxBins>
void
countDistancesAvx512Impl(common::Bits x, const common::Bits *outcomes,
                         std::size_t count, std::size_t bins,
                         std::uint64_t *counts)
{
    constexpr std::size_t kWrap = 255; // passes per byte-counter fold
    const __m512i xv = _mm512_set1_epi64(static_cast<long long>(x));
    const __m512i zero = _mm512_setzero_si512();
    __m512i wide[MaxBins];
    __m512i narrow[MaxBins];
    std::fill(wide, wide + MaxBins, zero);
    std::size_t j = 0;
    while (count - j >= 64) {
        const std::size_t passes = std::min(kWrap, (count - j) / 64);
        std::fill(narrow, narrow + MaxBins, zero);
        for (std::size_t p = 0; p < passes; ++p, j += 64)
            countBins(distances64(xv, outcomes + j), bins, narrow,
                      std::make_index_sequence<MaxBins>{});
        for (std::size_t d = 0; d < bins; ++d)
            wide[d] = _mm512_add_epi64(wide[d],
                                       _mm512_sad_epu8(narrow[d], zero));
    }
    for (std::size_t d = 0; d < bins; ++d)
        counts[d] = static_cast<std::uint64_t>(
            _mm512_reduce_add_epi64(wide[d]));
    for (; j < count; ++j) {
        const auto d =
            static_cast<std::size_t>(_mm_popcnt_u64(x ^ outcomes[j]));
        if (d < bins)
            ++counts[d];
    }
}

void
countDistancesAvx512(common::Bits x, const common::Bits *outcomes,
                     std::size_t count, std::size_t bins,
                     std::uint64_t *counts)
{
    // HAMMER's default radius keeps bins <= 8 up to 17-bit outcomes.
    if (bins <= 8)
        countDistancesAvx512Impl<8>(x, outcomes, count, bins, counts);
    else
        countDistancesAvx512Impl<kDistanceBins>(x, outcomes, count, bins,
                                                counts);
}

/**
 * Step 3, 32 rows per pass: the lanes of four 8-lane accumulators
 * are the rows' running scores (four independent add chains), and
 * one sweep over the run adds every row's k-th term.
 *
 * Permute: weights[d] comes from a two-register table lookup
 * (vpermi2pd over weights[0..15]) at min(d, 15), valid because the
 * caller checked that weights[15..64] are all zero.  Otherwise it is
 * gathered.  A run outcome equal to the row looks up weights[0] ==
 * 0; a filtered term is masked off the add, so each lane sees
 * exactly the scalar kernel's additions (x + +0.0 == x for the
 * non-negative scores here).
 */
template <bool Filter, bool Permute>
void
scoreRowsAvx512Impl(const common::Bits *rowOutcomes,
                    const double *rowProbs, std::size_t rows,
                    const common::Bits *runOutcomes,
                    const double *runProbs, std::size_t runLength,
                    const double *weights, double *scores)
{
    constexpr int kGroups = 4;
    constexpr std::size_t kRows = 8 * kGroups;
    const __m512d w_lo = _mm512_loadu_pd(weights);
    const __m512d w_hi = _mm512_loadu_pd(weights + 8);
    const __m512i top = _mm512_set1_epi64(15);
    for (std::size_t b = 0; b < rows; b += kRows) {
        const std::size_t block = std::min(kRows, rows - b);
        // A short final block repeats its last row in the spare
        // lanes; their scores are computed and dropped.
        alignas(64) long long xs[kRows];
        alignas(64) double ps[kRows];
        for (std::size_t r = 0; r < kRows; ++r) {
            const std::size_t i = b + std::min(r, block - 1);
            xs[r] = static_cast<long long>(rowOutcomes[i]);
            ps[r] = rowProbs[i];
        }
        __m512i x[kGroups];
        __m512d p[kGroups];
        __m512d s[kGroups];
        for (int g = 0; g < kGroups; ++g) {
            x[g] = _mm512_load_si512(xs + 8 * g);
            p[g] = _mm512_load_pd(ps + 8 * g);
            s[g] = p[g]; // Algorithm 1 line 17 seeds with P_in[x].
        }
        for (std::size_t k = 0; k < runLength; ++k) {
            const __m512i y =
                _mm512_set1_epi64(static_cast<long long>(runOutcomes[k]));
            const __m512d pj = _mm512_set1_pd(runProbs[k]);
            for (int g = 0; g < kGroups; ++g) {
                const __m512i d =
                    _mm512_popcnt_epi64(_mm512_xor_si512(x[g], y));
                __m512d w;
                if constexpr (Permute)
                    w = _mm512_permutex2var_pd(
                        w_lo, _mm512_min_epu64(d, top), w_hi);
                else
                    w = _mm512_i64gather_pd(d, weights, 8);
                const __m512d t = _mm512_mul_pd(w, pj);
                if constexpr (Filter)
                    s[g] = _mm512_mask_add_pd(
                        s[g], _mm512_cmp_pd_mask(p[g], pj, _CMP_GT_OQ),
                        s[g], t);
                else
                    s[g] = _mm512_add_pd(s[g], t);
            }
        }
        alignas(64) double out[kRows];
        for (int g = 0; g < kGroups; ++g)
            _mm512_store_pd(out + 8 * g, s[g]);
        std::copy(out, out + block, scores + b);
    }
}

void
scoreRowsAvx512(const common::Bits *rowOutcomes, const double *rowProbs,
                std::size_t rows, const common::Bits *runOutcomes,
                const double *runProbs, std::size_t runLength,
                const double *weights, bool filter, double *scores)
{
    const bool permute =
        std::all_of(weights + 15, weights + kDistanceBins,
                    [](double w) { return w == 0.0; });
    const auto impl = filter
        ? (permute ? scoreRowsAvx512Impl<true, true>
                   : scoreRowsAvx512Impl<true, false>)
        : (permute ? scoreRowsAvx512Impl<false, true>
                   : scoreRowsAvx512Impl<false, false>);
    impl(rowOutcomes, rowProbs, rows, runOutcomes, runProbs, runLength,
         weights, scores);
}

/** countLayers' vector type: 32 uint16 lanes, levels 0-4 in-register. */
struct LayersAvx512
{
    using Reg = __m512i;
    static constexpr std::size_t width = 32;
    static constexpr int lowLevels = 5;
    static Reg load(const std::uint16_t *p)
    {
        return _mm512_loadu_si512(p);
    }
    static void store(std::uint16_t *p, Reg v) { _mm512_storeu_si512(p, v); }
    static Reg zero() { return _mm512_setzero_si512(); }
    static Reg add(Reg a, Reg b) { return _mm512_add_epi16(a, b); }
    static Reg swap(Reg v, int k)
    {
        switch (k) {
        case 0: // adjacent uint16 lanes: rotate each 32-bit lane by 16
            return _mm512_rol_epi32(v, 16);
        case 1: // adjacent 32-bit lanes
            return _mm512_shuffle_epi32(v, _MM_PERM_CDAB);
        case 2: // adjacent 64-bit lanes
            return _mm512_shuffle_epi32(v, _MM_PERM_BADC);
        case 3: // adjacent 128-bit lanes
            return _mm512_shuffle_i64x2(v, v, 0xb1);
        default: // the two 256-bit halves
            return _mm512_shuffle_i64x2(v, v, 0x4e);
        }
    }
};

} // namespace

const HammerKernels kAvx512HammerKernels{
    common::KernelTier::Avx512, countDistancesAvx512,
    layers::countLayers<LayersAvx512>, scoreRowsAvx512};

} // namespace hammer::core

#endif // HAMMER_HAVE_AVX512
