/**
 * @file
 * Scalar HAMMER pair-scan kernels (the reference every other tier
 * must match bit for bit) and the kernel dispatch.
 */

#include "core/hammer_kernels.hpp"

#include <algorithm>
#include <atomic>

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
scoreRowsScalar(const common::Bits *outcomes, const double *probs,
                std::size_t count, std::size_t first, std::size_t last,
                const double *weights, bool filter, double *scores)
{
    for (std::size_t i = first; i < last; ++i) {
        const common::Bits x = outcomes[i];
        const double px = probs[i];
        double score = px; // Algorithm 1 line 17 seeds with P_in[x].
        for (std::size_t j = 0; j < count; ++j) {
            const double pj = probs[j];
            // Filter pi: credit flows only from strictly less
            // probable neighbours, so rich-but-unlikely strings
            // cannot borrow strength from dominant ones.
            if (filter && !(px > pj))
                continue;
            score += weights[common::hammingDistance(x, outcomes[j])] *
                     pj;
        }
        scores[i - first] = score;
    }
}

std::atomic<const HammerKernels *> g_override{nullptr};

} // namespace

const HammerKernels kScalarHammerKernels{
    common::KernelTier::Scalar, countDistancesScalar, scoreRowsScalar};

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

} // namespace hammer::core
