/**
 * @file
 * Hamming Reconstruction (HAMMER) — the paper's contribution.
 *
 * Implements Algorithm 1 (Appendix A) exactly, plus the configuration
 * knobs needed for the ablation studies in DESIGN.md: neighbourhood
 * radius, the filter function pi, the per-distance weight scheme, and
 * the score-combination rule.
 */

#ifndef HAMMER_CORE_HAMMER_HPP
#define HAMMER_CORE_HAMMER_HPP

#include <cstdint>
#include <vector>

#include "core/distribution.hpp"

namespace hammer::core {

/** How per-distance weights W_d are derived. */
enum class WeightScheme
{
    /** W_d = 1 / aggregateCHS_d — the paper's inverted average CHS. */
    InverseChs,
    /** W_d = 1 for every distance (ablation). */
    Uniform,
    /** W_d = 1 / C(n, d) — bin-size normalisation only (ablation). */
    InverseBinomial,
};

/** How the neighbourhood score combines with the input probability. */
enum class ScoreCombine
{
    /** P_out(x) = score(x) * P_in(x) — Algorithm 1 line 22. */
    Multiplicative,
    /** P_out(x) = score(x) (ablation). */
    Additive,
};

/** Tunable parameters of the reconstruction. */
struct HammerConfig
{
    /**
     * Largest Hamming distance whose neighbours contribute; -1 means
     * the paper's default floor((n - 1) / 2) (the "d < n/2" test).
     */
    int maxDistance = -1;

    /**
     * Enable the filter function pi: only neighbours with *lower*
     * probability than x contribute to x's score (Section 4.4).
     */
    bool filterLowerProbability = true;

    /** Per-distance weight scheme. */
    WeightScheme weightScheme = WeightScheme::InverseChs;

    /** Score combination rule. */
    ScoreCombine scoreCombine = ScoreCombine::Multiplicative;

    /**
     * Worker threads for the pair scans; 0 selects
     * common::ThreadPool::defaultThreadCount().  The support is
     * partitioned into fixed-size chunks whose partial CHS vectors
     * are combined with a deterministic reduction tree, so the
     * output is bit-identical for every thread count, including 1.
     */
    int threads = 0;
};

/** Observability data captured during a reconstruction. */
struct HammerStats
{
    std::size_t uniqueOutcomes = 0;   ///< N.
    int maxDistance = 0;              ///< Effective neighbourhood bound.
    std::vector<double> aggregateChs; ///< Step-1 aggregate CHS.
    std::vector<double> weights;      ///< Step-2 weights W_d.
    /**
     * Algorithm 1's logical pair count, Steps 1 and 3 together
     * (~2 N^2; the pruned count for reconstructFast()).  Step 1 counts
     * its ordered pairs whichever exact algorithm ran, scan or
     * Hamming-layer DP (hammer_kernels.hpp), so this, the Result JSON
     * and Table 3 do not depend on the algorithm.
     */
    std::uint64_t pairOperations = 0;
    /**
     * Row-outcome pairs Step 3 actually scored: reconstruct() sums
     * rows x run length over its rank chunks (hammer_kernels.hpp),
     * so with the filter on this is the share of N^2 the filter
     * leaves; reconstructFast() scores its pruned pairs.  The same
     * on every tier and thread count; kept out of the Result JSON.
     */
    std::uint64_t scoredPairs = 0;
};

/**
 * Run Hamming Reconstruction on a measured distribution.
 *
 * @param input Noisy (normalised) measurement distribution.
 * @param config Algorithm parameters (defaults = the paper).
 * @param stats Optional out-param for observability counters.
 * @return Reconstructed, normalised distribution over the same
 *         support.
 */
Distribution reconstruct(const Distribution &input,
                         const HammerConfig &config = {},
                         HammerStats *stats = nullptr);

/**
 * Apply the reconstruction repeatedly (an extension beyond the
 * paper: each pass sharpens the histogram further, at the risk of
 * over-concentration — the ablation bench quantifies the trade-off).
 *
 * @param input Noisy (normalised) measurement distribution.
 * @param iterations Number of passes, >= 1.
 * @param config Algorithm parameters applied on every pass.
 */
Distribution reconstructIterative(const Distribution &input,
                                  int iterations,
                                  const HammerConfig &config = {});

/**
 * Scalability-optimised reconstruction (Section 6.6 extension).
 *
 * Computes the same reconstruction as reconstruct() but prunes the
 * O(N^2) pair scans with a popcount bucketing, which also changes the
 * order in which each outcome's terms are summed, so its
 * probabilities may differ from reconstruct()'s in the last bits (up
 * to about 2.4e-14 relative, measured on channel histograms): the two
 * are not bit-identical.  Hamming distance is bounded
 * below by the difference in set-bit counts, so an outcome with k
 * set bits only ever interacts with outcomes whose popcount lies in
 * [k - d_max, k + d_max].  For the paper's default d_max = n/2 - 1
 * and clustered NISQ histograms this skips the bulk of the distant
 * pairs; HammerStats::pairOperations reports the surviving count so
 * the ablation bench can quantify the pruning.
 */
Distribution reconstructFast(const Distribution &input,
                             const HammerConfig &config = {},
                             HammerStats *stats = nullptr);

/**
 * The per-distance weights HAMMER would use for @p input — Step 2 in
 * isolation, exposed for the Fig. 7 walkthrough and tests.
 */
std::vector<double> hammerWeights(const Distribution &input,
                                  const HammerConfig &config = {});

/**
 * Neighbourhood score S(x) of a single outcome under @p config
 * (Eq. 2), exposed for the Fig. 7 walkthrough and tests.  The score
 * includes the seed term P(x), matching Algorithm 1 line 17.
 */
double neighborhoodScore(const Distribution &input, common::Bits x,
                         const HammerConfig &config = {});

} // namespace hammer::core

#endif // HAMMER_CORE_HAMMER_HPP
