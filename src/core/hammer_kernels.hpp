/**
 * @file
 * Runtime-dispatched pair-scan kernels for HAMMER's O(N^2) steps.
 *
 * Algorithm 1 spends nearly all its time in two scans over every
 * ordered pair of outcomes; these kernels are those scans, one table
 * per kernel tier:
 *
 *  - countDistances (Step 1): the exact integer histogram of
 *    H(x, y_j) <= dmax over a run of outcomes.  HAMMER's aggregate CHS only
 *    needs these counts, by the symmetry of H:
 *
 *        CHS_d = sum_i sum_{j != i, H(i,j) = d} P(j)
 *              = sum_i P(i) * count_d(i)
 *
 *    so the per-pair floating-point adds of the textbook loop become
 *    integer counts (the AVX2 tier counts 32 outcomes per pass, the
 *    AVX-512 tier 64, with byte compares), and the caller folds
 *    P(i) * count_d(i) into the chunk partial in a tier-independent
 *    order.  Every tier and thread count therefore gives the same
 *    bits; and when every probability is a multiple of 2^-k (any
 *    power-of-two shot count) both forms are exact, so they also
 *    match the textbook loop bit for bit.
 *
 *  - scoreRows (Step 3): the neighbourhood score of a run of rows.
 *    Every tier adds each row's terms in ascending j onto the seed
 *    P(x), exactly like the scalar loop; the AVX2 tier rescores 8
 *    rows per pass and the AVX-512 tier 32, one lane per row, with
 *    separate multiplies and adds (no FMA).  Diagonal terms are
 *    +0.0 additions; filtered terms are +0.0 additions (AVX2) or
 *    masked off (AVX-512).  Bit-identical across tiers on every
 *    input.
 *
 * Three kernel files: a portable scalar one, an AVX2 one compiled
 * with -mavx2 -mpopcnt and an AVX-512 one compiled with -mavx512f
 * -mavx512bw -mavx512vl -mavx512vpopcntdq (flags on each file only).
 * The tier is common::probedTier(); a tier without its own HAMMER
 * kernels runs those of the next lower tier (kernel_tier.hpp), so
 * sse2 and neon run the scalar ones.
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

/** One tier's HAMMER pair-scan kernels. */
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
     * For each row i in [first, last):
     *
     *     scores[i - first] = P(i) + sum over j = 0..count-1, in
     *         ascending order, of weights[H(i, j)] * P(j),
     *
     * skipping j when @p filter holds and !(P(i) > P(j)).  The caller
     * passes weights[0] == 0, which zeroes the diagonal term (the
     * support holds distinct outcomes, so H(i, j) == 0 iff j == i);
     * @p weights has kDistanceBins entries.
     */
    void (*scoreRows)(const common::Bits *outcomes, const double *probs,
                      std::size_t count, std::size_t first,
                      std::size_t last, const double *weights,
                      bool filter, double *scores);
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

} // namespace hammer::core

#endif // HAMMER_CORE_HAMMER_KERNELS_HPP
