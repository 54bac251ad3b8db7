/**
 * @file
 * Scalar HAMMER kernels (the reference every other tier must match
 * bit for bit), the kernel dispatch, Step 1's cost rule and Step 3's
 * rank-chunked driver.
 */

#include "core/hammer_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"

namespace hammer::core {

namespace {

void
countDistancesScalar(common::Bits x, const common::Bits *outcomes,
                     std::size_t count, std::size_t bins,
                     std::uint64_t *counts)
{
    std::uint64_t all[kDistanceBins] = {};
    for (std::size_t j = 0; j < count; ++j)
        ++all[common::hammingDistance(x, outcomes[j])];
    std::copy(all, all + bins, counts);
}

void
countLayersScalar(const common::Bits *outcomes, std::size_t count,
                  int numBits, std::size_t bins, std::uint16_t *planes)
{
    const std::size_t cube = std::size_t{1} << numBits;
    std::fill(planes, planes + bins * cube, std::uint16_t{0});
    for (std::size_t j = 0; j < count; ++j)
        planes[outcomes[j]] = 1;
    for (int k = 0; k < numBits; ++k) {
        const std::size_t half = std::size_t{1} << k;
        // Descending d: plane d - 1 is still level k's when read.
        for (std::size_t d = bins - 1; d >= 1; --d) {
            std::uint16_t *plane = planes + d * cube;
            const std::uint16_t *below = plane - cube;
            for (std::size_t base = 0; base < cube; base += 2 * half) {
                for (std::size_t x = base; x < base + half; ++x) {
                    plane[x] = static_cast<std::uint16_t>(
                        plane[x] + below[x + half]);
                    plane[x + half] = static_cast<std::uint16_t>(
                        plane[x + half] + below[x]);
                }
            }
        }
    }
}

void
scoreRowsScalar(const common::Bits *rowOutcomes, const double *rowProbs,
                std::size_t rows, const common::Bits *runOutcomes,
                const double *runProbs, std::size_t runLength,
                const double *weights, bool filter, double *scores)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const common::Bits x = rowOutcomes[r];
        const double px = rowProbs[r];
        double score = px; // Algorithm 1 line 17 seeds with P_in[x].
        for (std::size_t k = 0; k < runLength; ++k) {
            const double pj = runProbs[k];
            // Filter pi: credit flows only from strictly less
            // probable neighbours, so rich-but-unlikely strings
            // cannot borrow strength from dominant ones.
            if (filter && !(px > pj))
                continue;
            score +=
                weights[common::hammingDistance(x, runOutcomes[k])] * pj;
        }
        scores[r] = score;
    }
}

std::atomic<const HammerKernels *> g_override{nullptr};
std::atomic<Step1Path> g_step1{Step1Path::ByCost};

// Step 1's cost coefficients in ns, measured single-threaded with
// bench_hammer_core's Step-1 table on a 4-CPU AVX-512 Xeon (2 MiB L2
// per core), default radius, clustered 12-16 bit supports: the
// avx512 scan spends 0.20-0.27 ns per ordered pair, the avx512 DP
// 0.07-0.12 ns per plane entry and level while its planes fit in L2
// (reading the rows included).  The scan's is its fastest tier's, so
// on lower tiers, where the scan is 2.5x (avx2) to 20x (scalar)
// slower and the DP under 2x, the rule errs towards the scan.
constexpr double kScanNsPerPair = 0.25;
constexpr double kLayerNsPerAdd = 0.1;

} // namespace

const HammerKernels kScalarHammerKernels{
    common::KernelTier::Scalar, countDistancesScalar, countLayersScalar,
    scoreRowsScalar};

const HammerKernels *
hammerKernelsForTier(common::KernelTier tier)
{
    if (!common::tierSupported(tier))
        return nullptr;
    for (;; tier = common::lowerTier(tier)) {
        switch (tier) {
#if defined(HAMMER_HAVE_AVX512)
        case common::KernelTier::Avx512:
            return &kAvx512HammerKernels;
#endif
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
        case common::KernelTier::Avx2:
            return &kAvx2HammerKernels;
#endif
        case common::KernelTier::Scalar:
            return &kScalarHammerKernels;
        default:
            break;
        }
    }
}

const HammerKernels &
activeHammerKernels()
{
    if (const HammerKernels *forced =
            g_override.load(std::memory_order_acquire);
        forced != nullptr)
        return *forced;
    static const HammerKernels *probed =
        hammerKernelsForTier(common::probedTier());
    return *probed;
}

void
setActiveHammerKernels(const HammerKernels *kernels)
{
    g_override.store(kernels, std::memory_order_release);
}

std::uint64_t
scoreSupport(const common::Bits *outcomes, const double *probs,
             std::size_t count, const double *weights, bool filter,
             int threads, double *scores)
{
    using common::ThreadPool;
    const HammerKernels &kernels = activeHammerKernels();
    // Rank order: ascending (P, i), a stable sort of the support order
    // by P (on shot histograms, few distinct P and long ties).
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (filter)
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return probs[a] < probs[b];
                         });

    /** The outcomes with P(j) < below, in ascending j. */
    struct Run
    {
        double below = std::numeric_limits<double>::quiet_NaN();
        std::size_t length = 0;
        std::vector<common::Bits> outcomes;
        std::vector<double> probs;
    };
    const std::size_t chunks = ThreadPool::chunkCount(count, kRankChunk);
    std::vector<Run> runs(static_cast<std::size_t>(
        ThreadPool::resolveThreadCount(threads, chunks)));
    std::vector<std::uint64_t> scored(chunks, 0);
    ThreadPool::runChunked(
        threads, count, kRankChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end, int slot) {
            const std::size_t rows = end - begin;
            common::Bits xs[kRankChunk];
            double ps[kRankChunk];
            double out[kRankChunk];
            for (std::size_t r = 0; r < rows; ++r) {
                xs[r] = outcomes[order[begin + r]];
                ps[r] = probs[order[begin + r]];
            }
            const common::Bits *run_outcomes = outcomes;
            const double *run_probs = probs;
            std::size_t run_length = count;
            if (filter) {
                Run &run = runs[static_cast<std::size_t>(slot)];
                // The chunk's largest P: no row is credited by an
                // outcome at or above it.
                const double top = ps[rows - 1];
                if (!(run.below == top)) {
                    // Branch-free compaction: every outcome is written,
                    // only those below the threshold advance the end.
                    run.below = top;
                    run.outcomes.resize(count);
                    run.probs.resize(count);
                    run.length = 0;
                    for (std::size_t j = 0; j < count; ++j) {
                        run.outcomes[run.length] = outcomes[j];
                        run.probs[run.length] = probs[j];
                        run.length += probs[j] < top ? 1 : 0;
                    }
                }
                run_outcomes = run.outcomes.data();
                run_probs = run.probs.data();
                run_length = run.length;
            }
            scored[c] = rows * run_length;
            if (run_length == 0)
                std::copy(ps, ps + rows, out); // the seed alone
            else
                kernels.scoreRows(xs, ps, rows, run_outcomes, run_probs,
                                  run_length, weights, filter, out);
            for (std::size_t r = 0; r < rows; ++r)
                scores[order[begin + r]] = out[r];
        });
    return std::accumulate(scored.begin(), scored.end(), std::uint64_t{0});
}

bool
preferLayers(int numBits, std::size_t count, int dmax, int threads)
{
    const auto bins = static_cast<std::size_t>(dmax) + 1;
    if (numBits > kMaxLayerBits || !layerCountsFit(numBits, count) ||
        layerPlaneBytes(numBits, bins) > kMaxLayerPlaneBytes)
        return false;
    const int workers = common::ThreadPool::resolveThreadCount(
        threads, (count + 63) / 64); // the scan's 64-row chunks
    const double n = static_cast<double>(count);
    const double scan = kScanNsPerPair * n * n / workers;
    const double layers = kLayerNsPerAdd *
                          std::ldexp(1.0, numBits) *
                          (1.0 + static_cast<double>(numBits) * dmax);
    return layers < scan;
}

void
setStep1Path(Step1Path path)
{
    g_step1.store(path, std::memory_order_release);
}

Step1Path
step1Path()
{
    return g_step1.load(std::memory_order_acquire);
}

} // namespace hammer::core
