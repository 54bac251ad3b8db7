/**
 * @file
 * Hamming-weight index over a distribution's support.
 *
 * Hamming distance is bounded below by the difference in set-bit
 * counts: H(x, y) >= |pc(x) - pc(y)|.  Grouping the support of a
 * distribution by popcount therefore lets any neighbourhood scan
 * with a distance bound d_max visit only the weight bands
 * [pc(x) - d_max, pc(x) + d_max] — the pruning HAMMER's Section 6.6
 * complexity extension relies on.
 *
 * The index is a CSR layout over entry indices: one flat index array
 * plus per-weight offsets, so iterating a band is a contiguous scan
 * and building the index is two O(N) passes.  Within each band the
 * entry indices are ascending, which keeps every consumer's
 * iteration order (and so its floating-point summation order)
 * deterministic.
 */

#ifndef HAMMER_CORE_HAMMING_INDEX_HPP
#define HAMMER_CORE_HAMMING_INDEX_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/distribution.hpp"

namespace hammer::core {

/**
 * Immutable popcount-band view of a Distribution's support.
 *
 * Indexes positions into the distribution's entries() vector, so the
 * distribution must outlive (and not be mutated under) the index.
 */
class HammingIndex
{
  public:
    /** Build the index for @p dist (O(N) counting sort by weight). */
    explicit HammingIndex(const Distribution &dist);

    int numBits() const { return numBits_; }

    /** Number of indexed entries. */
    std::size_t size() const { return weights_.size(); }

    /** Smallest populated Hamming weight (0 when empty). */
    int minWeight() const { return minWeight_; }

    /** Largest populated Hamming weight (-1 when empty). */
    int maxWeight() const { return maxWeight_; }

    /** Hamming weight (popcount) of entry @p i. */
    int weightOf(std::size_t i) const { return weights_[i]; }

    /**
     * Entry indices whose outcome has popcount @p weight, ascending.
     * Empty span for weights outside [0, numBits()].
     */
    std::span<const std::uint32_t> band(int weight) const;

    /** Every entry index, band-major: band(0), band(1), ... */
    std::span<const std::uint32_t> bandOrder() const { return indices_; }

    /**
     * Positions [first, last) into bandOrder() of every entry whose
     * Hamming weight lies in [pc - radius, pc + radius], where
     * pc = weightOf(i) — the candidate neighbours of entry @p i
     * admitted by the popcount bound, as one contiguous run (the
     * bands are stored in ascending weight order).  @p i itself is
     * among them.
     */
    std::pair<std::size_t, std::size_t> candidateRange(std::size_t i,
                                                       int radius) const
    {
        const int pc = weights_[i];
        const int lo = pc - radius < 0 ? 0 : pc - radius;
        const int hi = pc + radius > numBits_ ? numBits_ : pc + radius;
        return {offsets_[static_cast<std::size_t>(lo)],
                offsets_[static_cast<std::size_t>(hi) + 1]};
    }

    /**
     * Invoke fn(j) for every candidate neighbour j of entry @p i
     * (see candidateRange()).  Bands are visited in ascending weight
     * order and indices ascending within a band, so the visit order
     * is a pure function of the distribution.  @p i itself is
     * visited too; callers that need to skip the diagonal compare j
     * against i.
     */
    template <typename Fn>
    void forEachCandidate(std::size_t i, int radius, Fn &&fn) const
    {
        const auto [first, last] = candidateRange(i, radius);
        for (std::size_t k = first; k < last; ++k)
            fn(static_cast<std::size_t>(indices_[k]));
    }

  private:
    int numBits_;
    int minWeight_ = 0;
    int maxWeight_ = -1;
    std::vector<std::uint8_t> weights_;  // per-entry popcount
    std::vector<std::uint32_t> offsets_; // CSR offsets, size n + 2
    std::vector<std::uint32_t> indices_; // entry indices, band-major
};

} // namespace hammer::core

#endif // HAMMER_CORE_HAMMING_INDEX_HPP
