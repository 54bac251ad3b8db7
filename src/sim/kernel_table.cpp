/**
 * @file
 * Kernel-table dispatch for the statevector engine.
 *
 * The tier comes from common::probedTier() (CPUID, or HAMMER_KERNELS
 * for the forced-tier parity suite and the bench);
 * setActiveKernels() overrides it in-process.
 */

#include "sim/kernels.hpp"

#include <atomic>

namespace hammer::sim {

namespace {

std::atomic<const KernelTable *> g_override{nullptr};

} // namespace

const KernelTable *
kernelsForTier(KernelTier tier)
{
    if (!tierSupported(tier))
        return nullptr;
    // A tier without its own table (avx512) runs the next lower
    // tier's; the walk ends at scalar, which always has one.
    for (;; tier = common::lowerTier(tier)) {
        switch (tier) {
        case KernelTier::Scalar:
            return &kScalarKernels;
#if !defined(HAMMER_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
        case KernelTier::Sse2:
            return &kSse2Kernels;
        case KernelTier::Avx2:
            return &kAvx2Kernels;
#endif
#if defined(__aarch64__)
        case KernelTier::Neon:
            return &kNeonKernels;
#endif
#endif // !HAMMER_DISABLE_SIMD
        default:
            break;
        }
    }
}

const KernelTable &
activeKernels()
{
    if (const KernelTable *forced =
            g_override.load(std::memory_order_acquire);
        forced != nullptr)
        return *forced;
    static const KernelTable *probed =
        kernelsForTier(common::probedTier());
    return *probed;
}

void
setActiveKernels(const KernelTable *table)
{
    g_override.store(table, std::memory_order_release);
}

} // namespace hammer::sim
