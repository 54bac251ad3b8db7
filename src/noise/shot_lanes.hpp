/**
 * @file
 * Channel shots in SIMD lanes.
 *
 * ChannelSampler::sampleBatch splits a job's shots into fixed
 * 1024-shot chunks, each drawing from its own master.fork(c) stream.
 * The scalar loop (applyShotNoise / runShots in channel_sampler.cpp)
 * runs one chunk at a time; the lane kernels here run up to eight
 * chunks side by side, one xoshiro256** stream per u64 lane: 8 lanes
 * on the avx512 tier, 4 on avx2.  sse2 and neon have no lane kernels
 * and, by common::lowerTier, run the scalar loop.
 *
 * Each lane consumes exactly its chunk's draws, in the scalar loop's
 * order:
 *
 *  1. all `quota` CDF draws first, each resolved by a branchless
 *     descent over the 2^n outcome CDF with gathers (the same index
 *     std::upper_bound gives, clamped to the last basis state) and
 *     relabelled into logical order by gathers from the byte-sliced
 *     circuits::OutcomeRelabel table;
 *  2. then, per shot: the scramble draw (plus one uniformInt(2^m)
 *     draw, r & (2^m - 1), when it fires), the burst draw when
 *     burstProbability > 0, one draw per CorrelatedFlip, and one draw
 *     per bit whose selected flip0 / flip1 probability is > 0.0.
 *
 * A lane advances its state only under a mask: past its chunk's
 * quota, after a scramble or burst exit, or on a bit whose selected
 * probability is 0.0, it draws nothing.  Every Bernoulli trial is the
 * integer test (x >> 11) < bernoulliBound(p), exactly uniform() < p.
 * The chunks' outcomes then feed the same integer counts as the
 * scalar loop, so every histogram is bit-identical on every tier,
 * thread count and lane grouping.
 *
 * Two kernel files, shot_lanes_avx2.cpp (-mavx2) and
 * shot_lanes_avx512.cpp (-mavx512f -mavx512bw -mavx512vl
 * -mavx512vpopcntdq), flags on each file only; both are left out
 * under HAMMER_DISABLE_SIMD.
 */

#ifndef HAMMER_NOISE_SHOT_LANES_HPP
#define HAMMER_NOISE_SHOT_LANES_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/transpiler.hpp"
#include "common/bitops.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "noise/channel_sampler.hpp"
#include "sim/statevector.hpp"

namespace hammer::noise {

/** Shots per chunk of sampleBatch: one forked stream each. */
inline constexpr int kChunkShots = 1024;

/** Widest lane group of any tier (avx512: 8 u64 lanes). */
inline constexpr int kMaxShotLanes = 8;

/**
 * Widest circuit the lanes run: their outcome buffer holds 32-bit
 * outcomes (a 2^32-entry CDF would already take 32 GiB).
 */
inline constexpr int kMaxLaneQubits = 32;

/** Per-circuit channel quantities shared by every shot. */
struct ShotPlan
{
    int measuredQubits;
    common::Bits mask;
    double scramble;
    std::vector<CorrelatedFlip> correlated;
    /**
     * Per-bit flip probability when the bit reads 0 / 1 before its
     * own flip: the independent gate flip combined with the readout
     * error of that value.
     */
    std::vector<double> flip0;
    std::vector<double> flip1;
    circuits::OutcomeRelabel relabel;
};

/**
 * The integer form of a Bernoulli trial: for the raw draw x behind
 * Rng::uniform() (k = x >> 11, uniform() = k * 2^-53 exactly),
 * uniform() < p holds exactly when k < bernoulliBound(p).  That is
 * ceil(p * 2^53) for p in (0, 1) (the scaling is exact), 2^53 for
 * p >= 1, and 0 for p <= 0 or NaN — so a bound is non-zero exactly
 * when p > 0.0.
 */
std::uint64_t bernoulliBound(double p);

/**
 * A ShotPlan and its outcome CDF as the lane kernels read them:
 * every probability as its bernoulliBound, bit masks as words.
 * Points into the CDF and the relabel table, which must outlive it.
 */
struct ShotLanePlan
{
    int measuredQubits = 0;
    std::uint64_t mask = 0;
    std::uint64_t scrambleBound = 0; ///< 0: no scramble draw.
    std::uint64_t burstBound = 0;    ///< 0: no burst draw.
    std::uint64_t burstPattern = 0;  ///< Masked burst flip pattern.
    /** Per CorrelatedFlip: its bound and its two-bit flip mask. */
    std::vector<std::uint64_t> pairBound;
    std::vector<std::uint64_t> pairMask;
    /** Per measured bit: the bound when it reads 0 / 1. */
    std::vector<std::uint64_t> flipBound0;
    std::vector<std::uint64_t> flipBound1;
    const double *cdf = nullptr;     ///< OutcomeCdf entries.
    std::size_t dimension = 0;       ///< 2^n CDF entries.
    double total = 0.0;              ///< OutcomeCdf::total().
    const common::Bits *relabel = nullptr; ///< bytes x 256 table.
    std::size_t relabelBytes = 0;
};

ShotLanePlan makeShotLanePlan(const ShotPlan &plan,
                              const ChannelParams &params,
                              const sim::OutcomeCdf &cdf);

/**
 * One tier's lane kernels.  A table whose run is nullptr (the scalar
 * one) means "run the scalar loop".
 */
struct ShotLanes
{
    common::KernelTier tier;
    int width; ///< u64 lanes per vector (1 for the scalar loop).

    /**
     * Run chunks streams[0..lanes) side by side, lane l drawing
     * quotas[l] <= kChunkShots shots.  Writes shot s of lane l, its
     * noisy logical outcome, to out[s * width + l] for s < quotas[l];
     * other words of out[0 .. max quota * width) are scratch.
     */
    void (*run)(const ShotLanePlan &plan, const common::Rng *streams,
                const int *quotas, int lanes, std::uint32_t *out);

    /**
     * The lanes' CDF search alone: out[i] = the outcome draw r[i]
     * resolves to, which must equal sim::OutcomeCdf::outcome(r[i]).
     * Exposed for tests.
     */
    void (*outcomes)(const double *cdf, std::size_t dimension,
                     const double *r, std::size_t count,
                     std::uint32_t *out);
};

extern const ShotLanes kScalarShotLanes;
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
extern const ShotLanes kAvx2ShotLanes;
#endif
#if defined(HAMMER_HAVE_AVX512)
extern const ShotLanes kAvx512ShotLanes;
#endif

/**
 * The lane kernels @p tier runs (for a tier without its own, those of
 * the highest tier below it that has them; the scalar table for
 * scalar, sse2 and neon), or nullptr when the host cannot run @p tier.
 */
const ShotLanes *shotLanesForTier(common::KernelTier tier);

/** The lane kernels of common::probedTier(), unless overridden. */
const ShotLanes &activeShotLanes();

/**
 * Force the active lane kernels (&kScalarShotLanes forces the scalar
 * loop; nullptr reverts to the probed tier).  Process-global, like
 * core::setActiveHammerKernels(): a hook for the parity tests and
 * benches, not for use while a batch is sampling.
 */
void setActiveShotLanes(const ShotLanes *lanes);

} // namespace hammer::noise

#endif // HAMMER_NOISE_SHOT_LANES_HPP
