/**
 * @file
 * Runtime-dispatched SIMD kernel table for the SoA statevector.
 *
 * Every gate kernel operates on separate re/im double planes
 * (structure-of-arrays) in two shapes:
 *
 *  - single-state: planes of length 2^n, one amplitude per index;
 *  - batched: planes of length 2^n * stride, amplitude-major — the
 *    `stride` doubles at row i hold amplitude i of every lane of a
 *    BatchedStateVector, so the innermost loop is contiguous for any
 *    target qubit (including qubit 0, where the single-state layout
 *    degrades to scalar pairs).
 *
 * One KernelTable per ISA tier (scalar / SSE2 / AVX2 / NEON); the
 * avx512 tier has no table of its own and runs AVX2's (the
 * next-lower-tier rule of kernel_tier.hpp).  All
 * tiers instantiate the same templated per-lane formulas
 * (kernels_generic.hpp) over a 1/2/4-wide vector abstraction, so a
 * wider tier performs exactly the same IEEE-754 operations per
 * amplitude in the same order — outputs are bit-identical across
 * tiers, batch sizes and thread counts (no FMA contraction anywhere:
 * the build compiles with -ffp-contract=off).
 *
 * The active tier is common::probedTier(): probed once (CPUID) and
 * forced with HAMMER_KERNELS=scalar|sse2|avx2|avx512|neon for the parity
 * test suite; forcing a tier the host cannot run is a hard error.
 */

#ifndef HAMMER_SIM_KERNELS_HPP
#define HAMMER_SIM_KERNELS_HPP

#include <cstddef>

#include "common/kernel_tier.hpp"

namespace hammer::sim {

// The tier enum and the host probe live in common (core's HAMMER
// kernels dispatch on the same tier); re-exported here so sim callers
// keep their spelling.
using common::bestSupportedTier;
using common::KernelTier;
using common::parseTier;
using common::supportedTiers;
using common::tierCompiled;
using common::tierName;
using common::tierSupported;

/**
 * Batched-plane lane stride granularity, in doubles.
 *
 * BatchedStateVector pads its lane count up to a multiple of this, so
 * every tier's vector width (1, 2 or 4) divides the row stride and
 * the batched kernels never need a scalar tail.  4 doubles matches
 * the widest tier and keeps each 32-byte amplitude row aligned while
 * bounding the padding overhead of narrow batches.
 */
inline constexpr std::size_t kBatchLaneMultiple = 4;

/**
 * One ISA tier's kernel set.
 *
 * Matrix/diagonal parameters arrive as unpacked component arrays:
 * m = {m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i} (row-major),
 * d = {d0r, d0i, d1r, d1i}.
 */
struct KernelTable
{
    KernelTier tier;
    int lanes; ///< Doubles per vector register (1, 2 or 4).

    // -- Single-state kernels: SoA planes of length dim.
    void (*apply1q)(double *re, double *im, std::size_t dim,
                    std::size_t mask, const double *m);
    void (*applyDiag)(double *re, double *im, std::size_t dim,
                      std::size_t mask, const double *d);
    void (*applyPhase)(double *re, double *im, std::size_t dim,
                       std::size_t mask, double pr, double pi);
    void (*applyX)(double *re, double *im, std::size_t dim,
                   std::size_t mask);
    void (*applyY)(double *re, double *im, std::size_t dim,
                   std::size_t mask);
    void (*applyCX)(double *re, double *im, std::size_t dim,
                    std::size_t cmask, std::size_t tmask);
    void (*applyCZ)(double *re, double *im, std::size_t dim,
                    std::size_t amask, std::size_t bmask);
    void (*applySwap)(double *re, double *im, std::size_t dim,
                      std::size_t amask, std::size_t bmask);

    // -- Batched kernels: dim amplitude rows of `stride` doubles,
    //    stride a multiple of kBatchLaneMultiple.
    void (*batch1q)(double *re, double *im, std::size_t dim,
                    std::size_t mask, std::size_t stride,
                    const double *m);
    void (*batchDiag)(double *re, double *im, std::size_t dim,
                      std::size_t mask, std::size_t stride,
                      const double *d);
    void (*batchPhase)(double *re, double *im, std::size_t dim,
                       std::size_t mask, std::size_t stride, double pr,
                       double pi);
    void (*batchX)(double *re, double *im, std::size_t dim,
                   std::size_t mask, std::size_t stride);
    void (*batchY)(double *re, double *im, std::size_t dim,
                   std::size_t mask, std::size_t stride);
    void (*batchCX)(double *re, double *im, std::size_t dim,
                    std::size_t cmask, std::size_t tmask,
                    std::size_t stride);
    void (*batchCZ)(double *re, double *im, std::size_t dim,
                    std::size_t amask, std::size_t bmask,
                    std::size_t stride);
    void (*batchSwap)(double *re, double *im, std::size_t dim,
                      std::size_t amask, std::size_t bmask,
                      std::size_t stride);
};

// Tier tables.  Plain globals with constant initialisation: taking
// the address of an uncallable tier (e.g. kAvx2Kernels on a non-AVX2
// host) executes none of its code.  Only the tiers compiled into this
// build exist; kernelsForTier() is the safe accessor.
extern const KernelTable kScalarKernels;
#if !defined(HAMMER_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelTable kSse2Kernels;
extern const KernelTable kAvx2Kernels;
#endif
#if defined(__aarch64__)
extern const KernelTable kNeonKernels;
#endif
#endif // !HAMMER_DISABLE_SIMD

/**
 * The table @p tier runs: its own, or for a tier without one the
 * highest table below it (common::lowerTier()); nullptr only when
 * the host cannot run @p tier.
 */
const KernelTable *kernelsForTier(KernelTier tier);

/**
 * The dispatched kernel table.
 *
 * The table of common::probedTier() (CPUID, or HAMMER_KERNELS=<tier>
 * when set).  setActiveKernels() overrides it (bench/test hook).
 */
const KernelTable &activeKernels();

/**
 * Force the active kernel table (nullptr reverts to the probed
 * default).  Process-global; intended for benches and the tier
 * parity tests, not concurrent use while kernels are running.
 */
void setActiveKernels(const KernelTable *table);

} // namespace hammer::sim

#endif // HAMMER_SIM_KERNELS_HPP
