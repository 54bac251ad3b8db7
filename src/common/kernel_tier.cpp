#include "common/kernel_tier.hpp"

#include <cstdlib>

#include "common/logging.hpp"

namespace hammer::common {

namespace {

bool
hostRunsTier(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return true;
    case KernelTier::Sse2:
        // SSE2 is part of the x86-64 baseline.
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
        return true;
#else
        return false;
#endif
    case KernelTier::Avx2:
        // The AVX2 files are also compiled with -mpopcnt; every AVX2
        // CPU has POPCNT, but check it rather than assume.
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
        return __builtin_cpu_supports("avx2") != 0 &&
               __builtin_cpu_supports("popcnt") != 0;
#else
        return false;
#endif
    case KernelTier::Avx512:
        // libgcc's and compiler-rt's probes also check that the OS
        // saves the zmm and mask registers (XCR0).
#if defined(HAMMER_HAVE_AVX512)
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vl") != 0 &&
               __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
        return false;
#endif
    case KernelTier::Neon:
        // Advanced SIMD is architecturally guaranteed on AArch64.
#if defined(__aarch64__) && !defined(HAMMER_DISABLE_SIMD)
        return true;
#else
        return false;
#endif
    }
    return false;
}

KernelTier
probeTier()
{
    if (const char *env = std::getenv("HAMMER_KERNELS");
        env != nullptr && *env != '\0') {
        KernelTier forced;
        if (!parseTier(env, forced))
            panic(std::string("HAMMER_KERNELS: unknown tier '") + env +
                  "'");
        if (!tierSupported(forced))
            panic(std::string("HAMMER_KERNELS: tier '") +
                  tierName(forced) + "' is not supported on this host");
        return forced;
    }
    return bestSupportedTier();
}

} // namespace

const char *
tierName(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return "scalar";
    case KernelTier::Sse2:
        return "sse2";
    case KernelTier::Avx2:
        return "avx2";
    case KernelTier::Avx512:
        return "avx512";
    case KernelTier::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseTier(const std::string &name, KernelTier &out)
{
    if (name == "scalar") {
        out = KernelTier::Scalar;
    } else if (name == "sse2") {
        out = KernelTier::Sse2;
    } else if (name == "avx2") {
        out = KernelTier::Avx2;
    } else if (name == "avx512") {
        out = KernelTier::Avx512;
    } else if (name == "neon") {
        out = KernelTier::Neon;
    } else {
        return false;
    }
    return true;
}

KernelTier
lowerTier(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Avx512:
        return KernelTier::Avx2;
    case KernelTier::Avx2:
        return KernelTier::Sse2;
    case KernelTier::Scalar:
    case KernelTier::Sse2:
    case KernelTier::Neon:
        break;
    }
    return KernelTier::Scalar;
}

bool
tierCompiled(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return true;
    case KernelTier::Sse2:
    case KernelTier::Avx2:
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
        return true;
#else
        return false;
#endif
    case KernelTier::Avx512:
        // Only HAMMER's kernels have an AVX-512 file; it is compiled
        // when the compiler takes its flags.
#if defined(HAMMER_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    case KernelTier::Neon:
#if defined(__aarch64__) && !defined(HAMMER_DISABLE_SIMD)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
tierSupported(KernelTier tier)
{
    return tierCompiled(tier) && hostRunsTier(tier);
}

std::vector<KernelTier>
supportedTiers()
{
    std::vector<KernelTier> tiers;
    for (KernelTier tier :
         {KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2,
          KernelTier::Avx512, KernelTier::Neon}) {
        if (tierSupported(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

KernelTier
bestSupportedTier()
{
    KernelTier best = KernelTier::Scalar;
    for (KernelTier tier : supportedTiers())
        best = tier;
    return best;
}

KernelTier
probedTier()
{
    static const KernelTier probed = probeTier();
    return probed;
}

} // namespace hammer::common
