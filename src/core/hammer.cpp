#include "core/hammer.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>
#include <span>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/hamming_index.hpp"
#include "core/hammer_kernels.hpp"
#include "core/spectrum.hpp"

namespace hammer::core {

using common::Bits;
using common::require;
using common::ThreadPool;

namespace {

// Fixed work-item size for the parallel pair scans.  The chunk
// schedule depends only on the support size — never the thread count
// — which is what makes the chunk-indexed partials (and so the whole
// reconstruction) bit-identical for any number of workers.
constexpr std::size_t kScanChunk = 64;

/** Resolve config.maxDistance to the effective bound. */
int
effectiveMaxDistance(const Distribution &input, const HammerConfig &config)
{
    if (config.maxDistance < 0)
        return defaultMaxDistance(input.numBits());
    require(config.maxDistance <= input.numBits(),
            "HammerConfig: maxDistance exceeds output width");
    return config.maxDistance;
}

/** Step 2: derive per-distance weights from the aggregate CHS. */
std::vector<double>
weightsFromChs(const std::vector<double> &chs, int num_bits,
               WeightScheme scheme)
{
    std::vector<double> weights(chs.size(), 0.0);
    for (std::size_t d = 0; d < chs.size(); ++d) {
        switch (scheme) {
          case WeightScheme::InverseChs:
            if (chs[d] > 0.0)
                weights[d] = 1.0 / chs[d];
            break;
          case WeightScheme::Uniform:
            weights[d] = 1.0;
            break;
          case WeightScheme::InverseBinomial:
            weights[d] = 1.0 / common::binomial(num_bits,
                                                static_cast<int>(d));
            break;
        }
    }
    return weights;
}

/** Step 1's result: the aggregate CHS and its logical pair count. */
struct Step1
{
    std::vector<double> chs;
    std::uint64_t pairOps = 0;
};

/**
 * Combine chunk partials with a pairwise reduction tree (round k
 * merges partials 2^k apart).  The merge order is a pure function of
 * the chunk count, so the summed CHS is independent of which worker
 * produced which partial.
 */
std::vector<double>
treeReduceChs(std::vector<std::vector<double>> &parts)
{
    require(!parts.empty(), "treeReduceChs: no parts");
    for (std::size_t stride = 1; stride < parts.size(); stride *= 2) {
        for (std::size_t i = 0; i + stride < parts.size();
             i += 2 * stride) {
            std::vector<double> &into = parts[i];
            const std::vector<double> &from = parts[i + stride];
            for (std::size_t d = 0; d < into.size(); ++d)
                into[d] += from[d];
        }
    }
    return std::move(parts[0]);
}

/**
 * Struct-of-arrays copy of a distribution's support: the pair-scan
 * kernels stream outcomes (one cache line holds eight) and probs
 * separately instead of walking the 16-byte Entry structs.
 */
struct FlatSupport
{
    explicit FlatSupport(const Distribution &input)
    {
        const auto &entries = input.entries();
        outcomes.reserve(entries.size());
        probs.reserve(entries.size());
        for (const Entry &e : entries) {
            outcomes.push_back(e.outcome);
            probs.push_back(e.probability);
        }
    }

    std::vector<Bits> outcomes;
    std::vector<double> probs;
};

/**
 * Step 1's fold: the aggregate CHS (bins 0..dmax) by the counting
 * identity CHS_d = sum_i P(i) * count_d(i) (hammer_kernels.hpp).
 * @p rowCounts(i, counts) writes row i's exact counts of bins
 * 1..dmax, by either Step-1 algorithm.  Rows are folded in fixed
 * 64-row chunks reduced by treeReduceChs, so the CHS has the same
 * bits for every algorithm, thread count and kernel tier.
 */
template <typename RowCounts>
std::vector<double>
foldChs(const FlatSupport &support, int dmax, int threads,
        const RowCounts &rowCounts)
{
    const std::size_t count = support.outcomes.size();
    const auto bins = static_cast<std::size_t>(dmax) + 1;
    std::vector<std::vector<double>> partials(
        ThreadPool::chunkCount(count, kScanChunk));
    ThreadPool::runChunked(
        threads, count, kScanChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end, int) {
            std::vector<double> &partial = partials[c];
            partial.assign(bins, 0.0);
            std::uint64_t counts[kDistanceBins];
            for (std::size_t i = begin; i < end; ++i) {
                rowCounts(i, counts);
                const double px = support.probs[i];
                // count_0(i) == 1: outcomes are distinct.
                partial[0] += px;
                for (std::size_t d = 1; d < bins; ++d)
                    partial[d] += px * static_cast<double>(counts[d]);
            }
        });
    if (partials.empty()) // empty support: all-zero CHS
        return std::vector<double>(bins, 0.0);
    return treeReduceChs(partials);
}

/**
 * Step 1 by the pair scan: row i's counts come from countDistances
 * over the run @p candidates(i) returns — a span of outcomes that
 * holds x_i itself and every outcome within dmax of it — so the
 * counts of bins 0..dmax do not depend on how far beyond dmax the
 * run reaches.
 */
template <typename Candidates>
std::vector<double>
chsByScan(const FlatSupport &support, int dmax, int threads,
          const Candidates &candidates)
{
    const HammerKernels &kernels = activeHammerKernels();
    const auto bins = static_cast<std::size_t>(dmax) + 1;
    return foldChs(support, dmax, threads,
                   [&](std::size_t i, std::uint64_t *counts) {
                       const std::span<const Bits> run = candidates(i);
                       kernels.countDistances(support.outcomes[i],
                                              run.data(), run.size(),
                                              bins, counts);
                   });
}

/**
 * countLayers' planes for one call: a private anonymous mapping,
 * unmapped when the call ends, so the planes hold memory only while
 * the DP runs.  Heap buffers raised sweep-mitigate's peak RSS: kept
 * per thread, they were freed with short-lived threads and glibc then
 * raised its mmap threshold past their size, moving later
 * allocations of that size into arenas (+2.3 MiB); pooled, they
 * stayed resident between jobs (+1 MiB).  A mapping costs a map, an
 * unmap and the page zero-fills, which MAP_POPULATE batches.
 */
class PlaneMapping
{
  public:
    explicit PlaneMapping(std::size_t bytes) : bytes_(bytes)
    {
        int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
        flags |= MAP_POPULATE;
#endif
        void *planes =
            ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
        if (planes == MAP_FAILED)
            throw std::bad_alloc();
        planes_ = static_cast<std::uint16_t *>(planes);
    }

    ~PlaneMapping() { ::munmap(planes_, bytes_); }

    PlaneMapping(const PlaneMapping &) = delete;
    PlaneMapping &operator=(const PlaneMapping &) = delete;

    std::uint16_t *data() const { return planes_; }

  private:
    std::size_t bytes_;
    std::uint16_t *planes_;
};

/**
 * Step 1 by the Hamming-layer DP: countLayers fills the planes once,
 * then row i's counts are read off them at x_i.
 */
std::vector<double>
chsByLayers(const FlatSupport &support, int numBits, int dmax,
            int threads)
{
    const auto bins = static_cast<std::size_t>(dmax) + 1;
    const PlaneMapping planes(layerPlaneBytes(numBits, bins));
    activeHammerKernels().countLayers(support.outcomes.data(),
                                      support.outcomes.size(), numBits,
                                      bins, planes.data());
    const std::uint16_t *cube = planes.data();
    return foldChs(support, dmax, threads,
                   [&](std::size_t i, std::uint64_t *counts) {
                       const Bits x = support.outcomes[i];
                       for (std::size_t d = 1; d < bins; ++d)
                           counts[d] = cube[(d << numBits) + x];
                   });
}

/** True when Step 1 runs countLayers (step1Path(), else the cost). */
bool
useLayers(int numBits, std::size_t count, int dmax, int threads)
{
    switch (step1Path()) {
    case Step1Path::Scan:
        return false;
    case Step1Path::Layers:
        return numBits <= kMaxLayerBits &&
               layerCountsFit(numBits, count);
    case Step1Path::ByCost:
        break;
    }
    return preferLayers(numBits, count, dmax, threads);
}

/**
 * Step 1 over the whole support: Algorithm 1's N(N - 1) ordered
 * pairs, by the DP or the exhaustive scan.
 */
Step1
exhaustiveStep1(const FlatSupport &support, int numBits, int dmax,
                int threads)
{
    const std::size_t count = support.outcomes.size();
    Step1 step1;
    step1.pairOps = count * (count - 1);
    if (useLayers(numBits, count, dmax, threads)) {
        step1.chs = chsByLayers(support, numBits, dmax, threads);
    } else {
        const std::span<const Bits> all(support.outcomes);
        step1.chs = chsByScan(support, dmax, threads,
                              [&](std::size_t) { return all; });
    }
    return step1;
}

/** Step 3's work: its logical pair count and the pairs it scored. */
struct Step3
{
    std::uint64_t pairOps = 0;
    std::uint64_t scoredPairs = 0;
};

/**
 * Steps 2 and 3 of both reconstruction variants, given the Step-1
 * partial.  @p scoreAll(weights_ext, scores) writes every row's
 * neighbourhood score to scores[i] and returns its Step3 work;
 * weights_ext has kDistanceBins entries, zero at distance 0 (the
 * diagonal) and beyond dmax, so scans need no distance branch.  Each
 * score is a pure function of (row, input, weights), written to its
 * own slot.
 */
template <typename ScoreAll>
Distribution
rescore(const Distribution &input, const HammerConfig &config,
        HammerStats *stats, int dmax, Step1 step1,
        const ScoreAll &scoreAll)
{
    const int n = input.numBits();
    const auto &entries = input.entries();
    const std::size_t count = entries.size();
    std::vector<double> chs = std::move(step1.chs);

    // Step 2: per-distance weights.
    const std::vector<double> weights =
        weightsFromChs(chs, n, config.weightScheme);
    std::vector<double> weights_ext(kDistanceBins, 0.0);
    std::copy(weights.begin() + 1, weights.end(),
              weights_ext.begin() + 1);

    // Step 3: rescore every outcome.
    std::vector<double> scores(count);
    const Step3 step3 = scoreAll(weights_ext.data(), scores.data());
    std::vector<Entry> rescored(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double px = entries[i].probability;
        rescored[i] = {entries[i].outcome,
                       config.scoreCombine == ScoreCombine::Multiplicative
                           ? scores[i] * px
                           : scores[i]};
    }

    Distribution output = Distribution::fromSorted(n, std::move(rescored));
    output.normalize();

    if (stats) {
        stats->uniqueOutcomes = count;
        stats->maxDistance = dmax;
        stats->aggregateChs = std::move(chs);
        stats->weights = weights;
        stats->pairOperations = step1.pairOps + step3.pairOps;
        stats->scoredPairs = step3.scoredPairs;
    }
    return output;
}

} // namespace

std::vector<double>
hammerWeights(const Distribution &input, const HammerConfig &config)
{
    const int dmax = effectiveMaxDistance(input, config);
    const FlatSupport support(input);
    return weightsFromChs(
        exhaustiveStep1(support, input.numBits(), dmax, config.threads)
            .chs,
        input.numBits(), config.weightScheme);
}

double
neighborhoodScore(const Distribution &input, Bits x,
                  const HammerConfig &config)
{
    const int dmax = effectiveMaxDistance(input, config);
    const auto weights = hammerWeights(input, config);
    const double px = input.probability(x);

    double score = px; // Algorithm 1 line 17 seeds with P_in[x].
    for (const Entry &y : input.entries()) {
        if (y.outcome == x)
            continue;
        const int d = common::hammingDistance(x, y.outcome);
        if (d > dmax)
            continue;
        if (config.filterLowerProbability && !(px > y.probability))
            continue;
        score += weights[static_cast<std::size_t>(d)] * y.probability;
    }
    return score;
}

Distribution
reconstruct(const Distribution &input, const HammerConfig &config,
            HammerStats *stats)
{
    require(input.support() > 0, "reconstruct: empty distribution");
    require(input.normalized(1e-6),
            "reconstruct: input distribution must be normalised");

    const int dmax = effectiveMaxDistance(input, config);
    const FlatSupport support(input);
    const std::size_t count = support.outcomes.size();

    // Algorithm 1 over every ordered pair (the operation count Table 3
    // quotes): Step 1 by whichever exact algorithm is cheaper, Step 3
    // over probability-ranked row chunks (scoreSupport), which score
    // only the pairs the filter can pass.  reconstructFast() is the
    // popcount-pruned variant.
    const auto scoreAll = [&](const double *weights_ext,
                              double *scores) -> Step3 {
        return {count * (count - 1),
                scoreSupport(support.outcomes.data(), support.probs.data(),
                             count, weights_ext,
                             config.filterLowerProbability, config.threads,
                             scores)};
    };
    return rescore(input, config, stats, dmax,
                   exhaustiveStep1(support, input.numBits(), dmax,
                                   config.threads),
                   scoreAll);
}

Distribution
reconstructIterative(const Distribution &input, int iterations,
                     const HammerConfig &config)
{
    require(iterations >= 1,
            "reconstructIterative: need at least one pass");
    Distribution current = reconstruct(input, config);
    for (int pass = 1; pass < iterations; ++pass)
        current = reconstruct(current, config);
    return current;
}

Distribution
reconstructFast(const Distribution &input, const HammerConfig &config,
                HammerStats *stats)
{
    require(input.support() > 0, "reconstructFast: empty distribution");
    require(input.normalized(1e-6),
            "reconstructFast: input distribution must be normalised");

    const int dmax = effectiveMaxDistance(input, config);
    const FlatSupport support(input);

    // H(x, y) >= |pc(x) - pc(y)|: only the weight bands within dmax
    // of pc(x) can hold neighbours of x.
    const HammingIndex index(input);

    // Step 1's logical pairs are each row's candidates but itself,
    // whichever algorithm counts them.  The scan counts each row's
    // distances over its candidate bands, one contiguous run of a
    // band-major outcome copy; the run holds every outcome within
    // dmax, so the counts of bins 0..dmax — and the aggregate CHS —
    // equal reconstruct()'s bit for bit.
    const std::size_t count = support.outcomes.size();
    Step1 step1;
    for (std::size_t i = 0; i < count; ++i) {
        const auto [first, last] = index.candidateRange(i, dmax);
        step1.pairOps += last - first - 1;
    }
    if (useLayers(input.numBits(), count, dmax, config.threads)) {
        step1.chs =
            chsByLayers(support, input.numBits(), dmax, config.threads);
    } else {
        std::vector<Bits> banded;
        banded.reserve(count);
        for (const std::uint32_t j : index.bandOrder())
            banded.push_back(support.outcomes[j]);
        step1.chs = chsByScan(
            support, dmax, config.threads, [&](std::size_t i) {
                const auto [first, last] = index.candidateRange(i, dmax);
                return std::span<const Bits>(banded.data() + first,
                                             last - first);
            });
    }

    const auto scoreAll = [&](const double *weights_ext,
                              double *scores) -> Step3 {
        const bool filter = config.filterLowerProbability;
        std::vector<std::uint64_t> chunkOps(
            ThreadPool::chunkCount(count, kScanChunk), 0);
        ThreadPool::runChunked(
            config.threads, count, kScanChunk,
            [&](std::size_t c, std::size_t begin, std::size_t end, int) {
                std::uint64_t ops = 0;
                for (std::size_t i = begin; i < end; ++i) {
                    const Bits x = support.outcomes[i];
                    const double px = support.probs[i];
                    double score = px;
                    index.forEachCandidate(i, dmax, [&](std::size_t j) {
                        if (j == i)
                            return;
                        ++ops;
                        const int d = common::hammingDistance(
                            x, support.outcomes[j]);
                        const double pj = support.probs[j];
                        if (filter && !(px > pj))
                            return;
                        score +=
                            weights_ext[static_cast<std::size_t>(d)] * pj;
                    });
                    scores[i] = score;
                }
                chunkOps[c] = ops;
            });
        const std::uint64_t ops = std::accumulate(
            chunkOps.begin(), chunkOps.end(), std::uint64_t{0});
        return {ops, ops};
    };
    return rescore(input, config, stats, dmax, std::move(step1),
                   scoreAll);
}

} // namespace hammer::core
