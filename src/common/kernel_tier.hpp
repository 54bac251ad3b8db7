/**
 * @file
 * ISA kernel tiers and the host probe that picks one.
 *
 * Every module with per-ISA kernel files (the statevector engine in
 * sim, the HAMMER pair scans in core) dispatches on the same tier, so
 * the probe lives here, below both.  The host CPU is probed once;
 * HAMMER_KERNELS=scalar|sse2|avx2|neon overrides the probe for the
 * forced-tier parity suites and the benches.  Forcing a tier the host
 * cannot run is a hard error, so a misconfigured CI leg fails loudly
 * instead of silently measuring the wrong tier.
 */

#ifndef HAMMER_COMMON_KERNEL_TIER_HPP
#define HAMMER_COMMON_KERNEL_TIER_HPP

#include <string>
#include <vector>

namespace hammer::common {

/** ISA tiers, in dispatch-preference order (highest wins). */
enum class KernelTier
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Neon = 3,
};

/** Canonical lower-case tier name ("scalar", "sse2", ...). */
const char *tierName(KernelTier tier);

/** Parse a tier name; returns false on unknown input. */
bool parseTier(const std::string &name, KernelTier &out);

/** True when this build contains the tier's translation units. */
bool tierCompiled(KernelTier tier);

/** True when the tier is compiled in AND the host CPU can run it. */
bool tierSupported(KernelTier tier);

/** Every supported tier, ascending (always contains Scalar). */
std::vector<KernelTier> supportedTiers();

/** Highest supported tier (the probe's dispatch choice). */
KernelTier bestSupportedTier();

/**
 * The tier every kernel module dispatches to: HAMMER_KERNELS when
 * set (a tier the host cannot run is a hard error), else
 * bestSupportedTier().  Probed on the first call.
 */
KernelTier probedTier();

} // namespace hammer::common

#endif // HAMMER_COMMON_KERNEL_TIER_HPP
