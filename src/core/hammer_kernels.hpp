/**
 * @file
 * Runtime-dispatched kernels for HAMMER's O(N^2) steps.
 *
 * Algorithm 1 spends nearly all its time in two scans over every
 * ordered pair of outcomes.  These kernels do that work, one table
 * per kernel tier.
 *
 * Step 1 needs only integer counts.  HAMMER's aggregate CHS follows
 * from each outcome's number of neighbours at each distance, by the
 * symmetry of H:
 *
 *     CHS_d = sum_i sum_{j != i, H(i,j) = d} P(j)
 *           = sum_i P(i) * count_d(i)
 *
 * Two algorithms compute count_d(i), under one contract: the exact
 * integer count of outcomes at distance d from x_i, for d <= dmax.
 * The caller folds P(i) * count_d(i) into chunk partials in a fixed,
 * tier-independent order, so whichever algorithm, tier or thread
 * count ran, the CHS has the same bits.  When every probability is
 * a multiple of 2^-k (any power-of-two shot count) both forms are
 * exact and also match the textbook loop bit for bit.
 *
 *  - countDistances: the pair scan, O(N^2) popcounts.  One row's
 *    distance histogram over a run of outcomes; the AVX2 tier counts
 *    32 outcomes per pass, the AVX-512 tier 64, with byte compares.
 *
 *  - countLayers: the Hamming-layer DP, O(n * dmax * 2^n) adds on
 *    uint16 planes T[d][x], one per distance, over the whole cube:
 *
 *        T_0(x, d)     = [d == 0 and x in the support]
 *        T_{k+1}(x, d) = T_k(x, d) + T_k(x ^ 2^k, d - 1)
 *
 *    T_n(x, d) counts the support at distance d from x.  Plane 0
 *    never changes.  The vector tiers run the low levels (bit k below
 *    the register width) with in-register shuffles in one pass, then
 *    one pass per higher level.  Each row's counts are read off the
 *    planes at x_i.
 *
 *    preferLayers() picks the algorithm per job from asymptotic cost,
 *    N^2 / threads against n * dmax * 2^n, capped by the planes'
 *    working set.  It depends only on the shape of the input.
 *
 * Step 3 scores each row against a candidate run, in ascending j
 * from the seed P(x).  The filter pi credits a row only from
 * strictly less probable outcomes, so scoreSupport() walks the rows
 * in rank order, ascending (P, outcome), in fixed 64-row chunks, and
 * scores each chunk against the run of outcomes with P(j) below the
 * chunk's largest P, in ascending j.  Every outcome left out has
 * P(j) >= P(i) for every row of the chunk, a term the scalar loop
 * skips anyway, so each row sees exactly the full scan's additions
 * in the full scan's order: the same bits for a fraction of the
 * work (on shot histograms, most rows are count-1 outcomes whose run
 * is empty).  With the filter off the run is the whole support.
 *
 * scoreRows scores a block of rows against one run.  Every tier adds
 * each row's terms in run order onto the seed, exactly like the
 * scalar loop; the AVX2 tier rescores 8 rows per pass and the
 * AVX-512 tier 32, one lane per row, with separate multiplies and
 * adds (no FMA).  Diagonal terms are +0.0 additions; filtered terms
 * are +0.0 additions (AVX2) or masked off (AVX-512).  Bit-identical
 * across tiers on every input.
 *
 * Three kernel files: a portable scalar one, an AVX2 one compiled
 * with -mavx2 -mpopcnt and an AVX-512 one compiled with -mavx512f
 * -mavx512bw -mavx512vl -mavx512vpopcntdq (flags on each file only).
 * The two vector files share the countLayers template in
 * hammer_kernels_layers.hpp.  The tier is common::probedTier(); a
 * tier without its own HAMMER kernels runs those of the next lower
 * tier (kernel_tier.hpp), so sse2 and neon run the scalar ones.
 */

#ifndef HAMMER_CORE_HAMMER_KERNELS_HPP
#define HAMMER_CORE_HAMMER_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "common/bitops.hpp"
#include "common/kernel_tier.hpp"

namespace hammer::core {

/** Bins of a distance histogram: distances 0..64. */
inline constexpr std::size_t kDistanceBins = 65;

/**
 * Widest outcomes countLayers takes: each of its planes holds 2^n
 * entries, 2 MiB at 20 bits.
 */
inline constexpr int kMaxLayerBits = 20;

/** One tier's HAMMER kernels. */
struct HammerKernels
{
    /** The tier these kernels were compiled for. */
    common::KernelTier tier;

    /**
     * counts[d] = #{j < count : popcount(x ^ outcomes[j]) == d} for
     * every d < @p bins (<= kDistanceBins); larger distances are not
     * counted.
     */
    void (*countDistances)(common::Bits x, const common::Bits *outcomes,
                           std::size_t count, std::size_t bins,
                           std::uint64_t *counts);

    /**
     * The Hamming-layer DP over the 2^numBits cube: for every x in
     * [0, 2^numBits) and every d < @p bins,
     *
     *     planes[(d << numBits) + x] =
     *         #{j < count : popcount(x ^ outcomes[j]) == d}.
     *
     * @p outcomes are distinct and below 2^numBits; numBits <=
     * kMaxLayerBits, 1 <= bins <= numBits + 1, and
     * layerCountsFit(numBits, count).  @p planes holds
     * layerPlaneBytes(numBits, bins) bytes; every entry is written.
     */
    void (*countLayers)(const common::Bits *outcomes, std::size_t count,
                        int numBits, std::size_t bins,
                        std::uint16_t *planes);

    /**
     * For each row r < @p rows, with x = rowOutcomes[r] and
     * p = rowProbs[r]:
     *
     *     scores[r] = p + sum over k = 0..runLength-1, in ascending
     *         order, of weights[H(x, runOutcomes[k])] * runProbs[k],
     *
     * skipping k when @p filter holds and !(p > runProbs[k]).  The
     * caller passes weights[0] == 0, which zeroes the term of a run
     * outcome equal to x; @p weights has kDistanceBins entries.
     */
    void (*scoreRows)(const common::Bits *rowOutcomes,
                      const double *rowProbs, std::size_t rows,
                      const common::Bits *runOutcomes,
                      const double *runProbs, std::size_t runLength,
                      const double *weights, bool filter,
                      double *scores);
};

extern const HammerKernels kScalarHammerKernels;
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
extern const HammerKernels kAvx2HammerKernels;
#endif
#if defined(HAMMER_HAVE_AVX512)
extern const HammerKernels kAvx512HammerKernels;
#endif

/**
 * The kernels @p tier runs (for a tier without its own, those of the
 * highest tier below it that has them), or nullptr when the host
 * cannot run @p tier.
 */
const HammerKernels *hammerKernelsForTier(common::KernelTier tier);

/** The kernels of common::probedTier(), unless overridden. */
const HammerKernels &activeHammerKernels();

/**
 * Force the active kernels (nullptr reverts to the probed tier).
 * Process-global; a hook for the parity tests and benches, not for
 * use while a reconstruction is running.
 */
void setActiveHammerKernels(const HammerKernels *kernels);

/** Rows per rank chunk of scoreSupport(). */
inline constexpr std::size_t kRankChunk = 64;

/**
 * Step 3 over a whole support of @p count distinct outcomes:
 * scores[i] is row i's neighbourhood score against every outcome, as
 * scoreRows defines it, under the active kernels.
 *
 * With @p filter, rows run in rank order, ascending (P, i), in
 * kRankChunk-row chunks, each against the run of outcomes with P(j)
 * below the chunk's largest P, in ascending j (see the file comment);
 * a chunk whose run is empty scores P(i) without a
 * kernel call.  Without it, rows run in support order against the
 * whole support.  Chunks go to @p threads workers (0 = the default
 * count); each worker keeps one run, rebuilt only when its next
 * chunk's threshold differs.  The bits do not depend on the tier,
 * the thread count or the filter path taken.
 *
 * @return The pairs scored: the sum over chunks of rows x run length.
 */
std::uint64_t scoreSupport(const common::Bits *outcomes,
                           const double *probs, std::size_t count,
                           const double *weights, bool filter,
                           int threads, double *scores);

/** Bytes of countLayers' planes: @p bins uint16 planes of 2^numBits. */
constexpr std::size_t
layerPlaneBytes(int numBits, std::size_t bins)
{
    return (bins * sizeof(std::uint16_t)) << numBits;
}

/**
 * Largest planes preferLayers() accepts: a per-core L2 of the
 * machines measured.  Beyond it every butterfly pass streams from L3
 * (the DP's time per add rose 1.5x at 17-20 bits), and each job in
 * flight would hold that much memory.
 */
inline constexpr std::size_t kMaxLayerPlaneBytes = std::size_t{2} << 20;

/**
 * True when countLayers' uint16 planes hold every count exactly.
 * T_k(x, d) counts outcomes at distance d within the low k bits of
 * x, so it is at most min(count, C(n, d)); C(16, d) <= 12870 keeps
 * even the full 16-bit cube (count = 65536) in range.
 */
constexpr bool
layerCountsFit(int numBits, std::size_t count)
{
    return count <= 0xffff || numBits <= 16;
}

/**
 * Step 1's algorithm for a job of @p count distinct @p numBits-bit
 * outcomes at radius @p dmax on @p threads workers (0 = the default
 * count): true for countLayers, false for the countDistances scan.
 *
 * The scan costs about N^2 / threads popcount lanes, the DP about
 * n * dmax * 2^n plane adds plus a 2^n sweep to build plane 0, run
 * on one thread; the coefficients were measured on both kernels.
 * The DP is taken only when its planes fit in a per-core L2
 * (kMaxLayerPlaneBytes), when its counts fit uint16, and when it is
 * cheaper.  A pure function of the job's shape: no tier, no
 * setting.
 */
bool preferLayers(int numBits, std::size_t count, int dmax, int threads);

/** Which Step-1 algorithm reconstructions run. */
enum class Step1Path
{
    ByCost, ///< preferLayers() decides (the default).
    Scan,   ///< Always countDistances.
    Layers, ///< countLayers up to kMaxLayerBits when the counts fit.
};

/**
 * Force the Step-1 algorithm (Step1Path::ByCost reverts to the cost
 * rule).  Process-global, like setActiveHammerKernels(): a hook for
 * the parity tests and benches, not for use while a reconstruction
 * is running.  Both paths give the same bits.
 */
void setStep1Path(Step1Path path);

/** The forced Step-1 algorithm, or Step1Path::ByCost. */
Step1Path step1Path();

} // namespace hammer::core

#endif // HAMMER_CORE_HAMMER_KERNELS_HPP
