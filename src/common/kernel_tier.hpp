/**
 * @file
 * ISA kernel tiers and the host probe that picks one.
 *
 * Every module with per-ISA kernel files (the statevector engine in
 * sim, the HAMMER pair scans in core, the channel shot lanes in
 * noise) dispatches on the same tier, so the probe lives here, below
 * them all.  The host CPU is probed once;
 * HAMMER_KERNELS=scalar|sse2|avx2|avx512|neon overrides the probe for
 * the forced-tier parity suites and the benches.  Forcing a tier the
 * host cannot run is a hard error, so a misconfigured CI leg fails
 * loudly instead of silently measuring the wrong tier.
 *
 * A module need not have kernels for every tier.  The rule is one for
 * all modules: a tier without its own kernels in a module runs the
 * kernels of lowerTier(tier), the next lower tier of its ISA family,
 * and so on down to scalar.  Today sim has scalar/sse2/avx2/neon
 * tables (avx512 runs AVX2's), core has scalar/avx2/avx512 HAMMER
 * kernels (sse2 and neon run the scalar ones), and noise has avx2 and
 * avx512 channel shot lanes (scalar, sse2 and neon run the scalar
 * shot loop).
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
    Avx512 = 3, ///< AVX-512 F/BW/VL + VPOPCNTDQ.
    Neon = 4,
};

/** Canonical lower-case tier name ("scalar", "sse2", ...). */
const char *tierName(KernelTier tier);

/** Parse a tier name; returns false on unknown input. */
bool parseTier(const std::string &name, KernelTier &out);

/**
 * The next lower tier of @p tier's ISA family, whose kernels a module
 * without its own for @p tier runs: avx512 -> avx2 -> sse2 -> scalar,
 * neon -> scalar; scalar maps to itself.
 */
KernelTier lowerTier(KernelTier tier);

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
