/**
 * @file
 * HAMMER pair-scan kernels: tier parity and the textbook oracle.
 *
 * The contract under test (hammer_kernels.hpp):
 *
 *  - every kernel tier, every thread count and both Step-1
 *    algorithms (the pair scan and the Hamming-layer DP) give the
 *    same bits for the full reconstruct() output, HammerStats and
 *    weights, and the two algorithms give every row the same counts;
 *  - Step 3 over probability-ranked row chunks (scoreSupport) gives
 *    every row the bits of the scalar kernel over the whole support
 *    and of neighborhoodScore, on tied shot histograms too, while
 *    pairOperations stays Algorithm 1's logical count;
 *  - against the textbook ordered-pair loop (kept below as the
 *    oracle), the output is bit-identical when every probability is
 *    a multiple of 2^-k (counts/8192), and within 1e-12 otherwise
 *    (counts/1000, random probabilities; the aggregate CHS and
 *    weights within a relative 1e-12).
 *
 * Tiers are forced in-process through setActiveHammerKernels(), so
 * one run covers every tier this host supports; the ctest
 * tier_parity_core_<tier> legs re-run the suite under
 * HAMMER_KERNELS=<tier> to exercise the probe path too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "core/hammer.hpp"
#include "core/hammer_kernels.hpp"
#include "core/spectrum.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::KernelTier;
using hammer::common::Rng;
using namespace hammer::core;

/** Scoped kernel override; always reverts to the probed tier. */
class KernelsGuard
{
  public:
    explicit KernelsGuard(const HammerKernels *kernels)
    {
        setActiveHammerKernels(kernels);
    }
    ~KernelsGuard() { setActiveHammerKernels(nullptr); }
};

/** Scoped Step-1 algorithm override; always reverts to the cost rule. */
class Step1Guard
{
  public:
    explicit Step1Guard(Step1Path path) { setStep1Path(path); }
    ~Step1Guard() { setStep1Path(Step1Path::ByCost); }
};

/** How the probabilities of a test histogram are drawn. */
enum class Mass
{
    Dyadic,  ///< counts / 8192: every probability a multiple of 2^-13.
    Per1000, ///< counts / 1000.
    Random,  ///< uniform weights, normalised.
};

const char *
massName(Mass mass)
{
    switch (mass) {
    case Mass::Dyadic:
        return "counts/8192";
    case Mass::Per1000:
        return "counts/1000";
    case Mass::Random:
        return "random";
    }
    return "?";
}

Bits
randomBits(Rng &rng, int n)
{
    const Bits hi = rng.uniformInt(Bits{1} << 32);
    const Bits lo = rng.uniformInt(Bits{1} << 32);
    const Bits x = (hi << 32) | lo;
    return n == 64 ? x : x & ((Bits{1} << n) - 1);
}

/**
 * A histogram of @p support distinct n-bit outcomes.  Outcomes
 * cluster around a random centre (so every distance bin fills, not
 * only the ~n/2 of uniform strings) and, at n = 64, always include
 * one with bit 63 set.
 */
Distribution
histogram(int n, std::size_t support, Mass mass, std::uint64_t seed)
{
    Rng rng(seed);
    const Bits centre = randomBits(rng, n);
    std::vector<Bits> outcomes;
    if (n == 64)
        outcomes.push_back(centre | (Bits{1} << 63));
    while (outcomes.size() < support) {
        Bits x = centre;
        const int flips = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(n) + 1));
        for (int f = 0; f < flips; ++f)
            x ^= Bits{1} << rng.uniformInt(static_cast<std::uint64_t>(n));
        if (std::find(outcomes.begin(), outcomes.end(), x) ==
            outcomes.end())
            outcomes.push_back(x);
    }

    Distribution d(n);
    if (mass == Mass::Random) {
        for (const Bits x : outcomes)
            d.set(x, rng.uniform(0.01, 1.0));
        d.normalize();
        return d;
    }
    const std::uint64_t total = mass == Mass::Dyadic ? 8192 : 1000;
    std::vector<std::uint64_t> counts(outcomes.size(), 1);
    for (std::uint64_t left = total - outcomes.size(); left > 0; --left)
        ++counts[rng.uniformInt(outcomes.size())];
    for (std::size_t k = 0; k < outcomes.size(); ++k)
        d.set(outcomes[k], static_cast<double>(counts[k]) /
                               static_cast<double>(total));
    return d;
}

/**
 * The textbook Algorithm 1 the kernels replace: one floating-point
 * add per ordered pair in Step 1, and the ascending-j rescoring loop
 * of Step 3 that skips the diagonal.
 */
Distribution
oracleReconstruct(const Distribution &input, const HammerConfig &config,
                  HammerStats &stats)
{
    const int n = input.numBits();
    const auto &entries = input.entries();
    const std::size_t count = entries.size();
    const int dmax = config.maxDistance < 0 ? defaultMaxDistance(n)
                                            : config.maxDistance;

    std::vector<double> chs(static_cast<std::size_t>(n) + 1, 0.0);
    for (std::size_t i = 0; i < count; ++i) {
        chs[0] += entries[i].probability;
        for (std::size_t j = 0; j < count; ++j) {
            if (j == i)
                continue;
            chs[static_cast<std::size_t>(hammer::common::hammingDistance(
                entries[i].outcome, entries[j].outcome))] +=
                entries[j].probability;
        }
    }
    chs.resize(static_cast<std::size_t>(dmax) + 1);

    std::vector<double> weights(chs.size(), 0.0);
    for (std::size_t d = 0; d < chs.size(); ++d) {
        switch (config.weightScheme) {
        case WeightScheme::InverseChs:
            if (chs[d] > 0.0)
                weights[d] = 1.0 / chs[d];
            break;
        case WeightScheme::Uniform:
            weights[d] = 1.0;
            break;
        case WeightScheme::InverseBinomial:
            weights[d] = 1.0 / hammer::common::binomial(
                                   n, static_cast<int>(d));
            break;
        }
    }
    std::vector<double> weights_ext = weights;
    weights_ext.resize(static_cast<std::size_t>(n) + 1, 0.0);

    std::vector<Entry> rescored;
    for (std::size_t i = 0; i < count; ++i) {
        const double px = entries[i].probability;
        double score = px;
        for (std::size_t j = 0; j < count; ++j) {
            if (j == i)
                continue;
            const double pj = entries[j].probability;
            if (config.filterLowerProbability && !(px > pj))
                continue;
            score += weights_ext[static_cast<std::size_t>(
                         hammer::common::hammingDistance(
                             entries[i].outcome, entries[j].outcome))] *
                     pj;
        }
        rescored.push_back(
            {entries[i].outcome,
             config.scoreCombine == ScoreCombine::Multiplicative
                 ? score * px
                 : score});
    }
    Distribution out = Distribution::fromSorted(n, std::move(rescored));
    out.normalize();

    stats.uniqueOutcomes = count;
    stats.maxDistance = dmax;
    stats.aggregateChs = chs;
    stats.weights = weights;
    stats.pairOperations = 2 * count * (count - 1);
    return out;
}

void
expectSameBits(const Distribution &got, const Distribution &want,
               const std::string &what)
{
    ASSERT_EQ(got.support(), want.support()) << what;
    for (std::size_t i = 0; i < got.support(); ++i) {
        ASSERT_EQ(got.entries()[i].outcome, want.entries()[i].outcome)
            << what << ", entry " << i;
        ASSERT_EQ(got.entries()[i].probability,
                  want.entries()[i].probability)
            << what << ", entry " << i;
    }
}

void
expectSameBits(const HammerStats &got, const HammerStats &want,
               const std::string &what)
{
    EXPECT_EQ(got.uniqueOutcomes, want.uniqueOutcomes) << what;
    EXPECT_EQ(got.maxDistance, want.maxDistance) << what;
    EXPECT_EQ(got.pairOperations, want.pairOperations) << what;
    ASSERT_EQ(got.aggregateChs.size(), want.aggregateChs.size()) << what;
    for (std::size_t d = 0; d < got.aggregateChs.size(); ++d)
        EXPECT_EQ(got.aggregateChs[d], want.aggregateChs[d])
            << what << ", chs bin " << d;
    ASSERT_EQ(got.weights.size(), want.weights.size()) << what;
    for (std::size_t d = 0; d < got.weights.size(); ++d)
        EXPECT_EQ(got.weights[d], want.weights[d])
            << what << ", weight " << d;
}

bool
relativelyClose(double a, double b)
{
    return std::fabs(a - b) <=
           1e-12 * std::max({std::fabs(a), std::fabs(b), 1.0});
}

/** The oracle check: bits on dyadic input, 1e-12 otherwise. */
void
expectMatchesOracle(const Distribution &input, const HammerConfig &config,
                    Mass mass, const Distribution &got,
                    const HammerStats &stats, const std::string &what)
{
    HammerStats oracle_stats;
    const Distribution oracle =
        oracleReconstruct(input, config, oracle_stats);
    if (mass == Mass::Dyadic) {
        expectSameBits(got, oracle, what + " vs oracle");
        expectSameBits(stats, oracle_stats, what + " vs oracle");
        return;
    }
    ASSERT_EQ(got.support(), oracle.support()) << what;
    for (std::size_t i = 0; i < got.support(); ++i)
        ASSERT_NEAR(got.entries()[i].probability,
                    oracle.entries()[i].probability, 1e-12)
            << what << " vs oracle, entry " << i;
    EXPECT_EQ(stats.pairOperations, oracle_stats.pairOperations) << what;
    ASSERT_EQ(stats.aggregateChs.size(), oracle_stats.aggregateChs.size());
    for (std::size_t d = 0; d < stats.aggregateChs.size(); ++d) {
        EXPECT_TRUE(relativelyClose(stats.aggregateChs[d],
                                    oracle_stats.aggregateChs[d]))
            << what << " vs oracle, chs bin " << d;
        EXPECT_TRUE(
            relativelyClose(stats.weights[d], oracle_stats.weights[d]))
            << what << " vs oracle, weight " << d;
    }
}

/** Every tier this host runs, each tier's kernels once. */
std::vector<const HammerKernels *>
supportedKernels()
{
    std::vector<const HammerKernels *> out;
    for (const KernelTier tier : hammer::common::supportedTiers())
        out.push_back(hammerKernelsForTier(tier));
    return out;
}

/**
 * reconstruct() under the scalar kernels is the reference; the
 * probed (or HAMMER_KERNELS-forced) tier and every supported tier
 * must reproduce it bit for bit, and it must match the oracle.
 */
void
checkAllTiers(const Distribution &input, const HammerConfig &config,
              Mass mass, const std::string &what)
{
    HammerStats ref_stats;
    Distribution reference(input.numBits());
    {
        KernelsGuard guard(&kScalarHammerKernels);
        reference = reconstruct(input, config, &ref_stats);
    }
    expectMatchesOracle(input, config, mass, reference, ref_stats, what);

    HammerStats stats;
    const Distribution probed = reconstruct(input, config, &stats);
    expectSameBits(probed, reference, what + " (probed tier)");
    expectSameBits(stats, ref_stats, what + " (probed tier)");
    for (const HammerKernels *kernels : supportedKernels()) {
        KernelsGuard guard(kernels);
        const std::string tier =
            what + " (" + hammer::common::tierName(kernels->tier) + ")";
        HammerStats tier_stats;
        expectSameBits(reconstruct(input, config, &tier_stats),
                       reference, tier);
        expectSameBits(tier_stats, ref_stats, tier);
        EXPECT_EQ(tier_stats.scoredPairs, ref_stats.scoredPairs) << tier;
        // Step 2 in isolation reports the weights reconstruct used.
        const std::vector<double> weights = hammerWeights(input, config);
        ASSERT_EQ(weights.size(), ref_stats.weights.size()) << tier;
        for (std::size_t d = 0; d < weights.size(); ++d)
            EXPECT_EQ(weights[d], ref_stats.weights[d])
                << tier << ", hammerWeights " << d;
    }
}

std::string
describe(int n, std::size_t support, Mass mass, const HammerConfig &c)
{
    return "n=" + std::to_string(n) + " N=" + std::to_string(support) +
           " " + massName(mass) + " radius=" +
           std::to_string(c.maxDistance) +
           " filter=" + std::to_string(c.filterLowerProbability) +
           " scheme=" + std::to_string(static_cast<int>(c.weightScheme)) +
           " combine=" + std::to_string(static_cast<int>(c.scoreCombine));
}

TEST(HammerKernels, ProbeFollowsTheEnvironment)
{
    const HammerKernels &active = activeHammerKernels();
    const KernelTier probed = hammer::common::probedTier();
    EXPECT_EQ(&active, hammerKernelsForTier(probed));
    // avx512 and avx2 have HAMMER kernels of their own; sse2 and neon
    // run the next lower tier's, the scalar ones.
    EXPECT_EQ(active.tier,
              probed == KernelTier::Avx512 || probed == KernelTier::Avx2
                  ? probed
                  : KernelTier::Scalar);
    if (const char *env = std::getenv("HAMMER_KERNELS");
        env != nullptr && *env != '\0') {
        EXPECT_STREQ(hammer::common::tierName(probed), env);
    }
    for (const KernelTier tier :
         {KernelTier::Sse2, KernelTier::Avx2, KernelTier::Avx512,
          KernelTier::Neon}) {
        if (!hammer::common::tierSupported(tier)) {
            EXPECT_EQ(hammerKernelsForTier(tier), nullptr);
        }
    }
    for (const KernelTier tier : hammer::common::supportedTiers())
        ASSERT_NE(hammerKernelsForTier(tier), nullptr)
            << hammer::common::tierName(tier);
}

TEST(HammerKernels, CountDistancesMatchesPopcountOnEveryTier)
{
    Rng rng(5);
    // Lengths around the AVX2 tier's 32-outcome pass and its 255-pass
    // byte-counter fold (8160 outcomes), and around the AVX-512
    // tier's 64-outcome pass and its fold (255 x 64 = 16320), with
    // every bin limit.
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{31},
          std::size_t{32}, std::size_t{33}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{100},
          std::size_t{8160}, std::size_t{8191}, std::size_t{16320},
          std::size_t{16383}, std::size_t{16385}, std::size_t{20000}}) {
        const int n = static_cast<int>(1 + rng.uniformInt(64));
        std::vector<Bits> outcomes(count);
        for (Bits &y : outcomes)
            y = randomBits(rng, n);
        const Bits x = randomBits(rng, n);
        std::vector<std::uint64_t> want(kDistanceBins, 0);
        for (const Bits y : outcomes)
            ++want[static_cast<std::size_t>(std::popcount(x ^ y))];
        for (const HammerKernels *kernels : supportedKernels()) {
            for (const std::size_t bins :
                 {std::size_t{1}, std::size_t{7}, kDistanceBins}) {
                std::vector<std::uint64_t> got(bins, 99);
                kernels->countDistances(x, outcomes.data(), count, bins,
                                        got.data());
                for (std::size_t d = 0; d < bins; ++d)
                    ASSERT_EQ(got[d], want[d])
                        << hammer::common::tierName(kernels->tier)
                        << " count=" << count << " bins=" << bins
                        << " d=" << d;
            }
        }
    }
}

TEST(HammerKernels, CountDistancesSurvivesOneBinOverflowingAByte)
{
    // 20000 copies of x: every outcome lands in bin 0, far beyond
    // what an 8-bit counter holds between folds.
    const std::vector<Bits> same(20000, Bits{0xdeadbeef});
    for (const HammerKernels *kernels : supportedKernels()) {
        std::uint64_t counts[2] = {7, 7};
        kernels->countDistances(Bits{0xdeadbeef}, same.data(), same.size(),
                                2, counts);
        EXPECT_EQ(counts[0], 20000u);
        EXPECT_EQ(counts[1], 0u);
    }
}

TEST(HammerKernels, CountDistancesSurvivesTwoFoldsOfOneBinOverflow)
{
    // 2 x 16320 + 7 copies of x: two full 255-pass folds of the
    // AVX-512 tier's 64 byte lanes (each lane reaching 255 before it
    // folds) plus a tail, all in bin 0.
    const std::size_t count = 2 * 255 * 64 + 7;
    const std::vector<Bits> same(count, Bits{0x0123456789abcdef});
    for (const HammerKernels *kernels : supportedKernels()) {
        std::uint64_t counts[3] = {7, 7, 7};
        kernels->countDistances(Bits{0x0123456789abcdef}, same.data(),
                                same.size(), 3, counts);
        EXPECT_EQ(counts[0], count)
            << hammer::common::tierName(kernels->tier);
        EXPECT_EQ(counts[1], 0u) << hammer::common::tierName(kernels->tier);
        EXPECT_EQ(counts[2], 0u) << hammer::common::tierName(kernels->tier);
    }
}

TEST(HammerKernels, ScoreRowsMatchesScalarOnAnyRowRange)
{
    const Distribution d = histogram(20, 300, Mass::Random, 11);
    std::vector<Bits> outcomes;
    std::vector<double> probs;
    for (const Entry &e : d.entries()) {
        outcomes.push_back(e.outcome);
        probs.push_back(e.probability);
    }
    std::vector<double> weights(kDistanceBins, 0.0);
    for (std::size_t k = 1; k <= 9; ++k)
        weights[k] = 1.0 / static_cast<double>(k * k + 3);
    for (const bool filter : {true, false}) {
        for (const auto &[first, last] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {0, 300}, {3, 4}, {5, 12}, {17, 81}, {299, 300},
                 // Across the AVX-512 tier's 32-row blocks, and a
                 // short final block (37 = 32 + 5 rows).
                 {0, 32}, {1, 33}, {31, 97}, {40, 77}}) {
            // Rows [first, last) against the whole support.
            std::vector<double> want(last - first);
            kScalarHammerKernels.scoreRows(
                outcomes.data() + first, probs.data() + first, last - first,
                outcomes.data(), probs.data(), outcomes.size(),
                weights.data(), filter, want.data());
            for (const HammerKernels *kernels : supportedKernels()) {
                std::vector<double> got(last - first, -1.0);
                kernels->scoreRows(outcomes.data() + first,
                                   probs.data() + first, last - first,
                                   outcomes.data(), probs.data(),
                                   outcomes.size(), weights.data(), filter,
                                   got.data());
                for (std::size_t r = 0; r < got.size(); ++r)
                    ASSERT_EQ(got[r], want[r])
                        << hammer::common::tierName(kernels->tier)
                        << " rows [" << first << ", " << last
                        << ") row " << first + r;
            }
        }
    }
}

TEST(HammerKernels, ScoreRowsWeightsBeyondFourteenMatchScalar)
{
    // Wide outcomes put distances all over 0..n.  Weights ending at
    // 14 take the AVX-512 tier's table-lookup path (every distance
    // clamped to 15 must read a zero weight); weights reaching 15 or
    // 16 force its gather path.
    std::uint64_t seed = 500;
    for (const int n : {40, 52, 64}) {
        const Distribution d = histogram(n, 150, Mass::Random, ++seed);
        std::vector<Bits> outcomes;
        std::vector<double> probs;
        for (const Entry &e : d.entries()) {
            outcomes.push_back(e.outcome);
            probs.push_back(e.probability);
        }
        for (const std::size_t dmax :
             {std::size_t{14}, std::size_t{15}, std::size_t{16}}) {
            std::vector<double> weights(kDistanceBins, 0.0);
            for (std::size_t k = 1; k <= dmax; ++k)
                weights[k] = 1.0 / static_cast<double>(k + 2);
            for (const bool filter : {true, false}) {
                std::vector<double> want(outcomes.size());
                kScalarHammerKernels.scoreRows(
                    outcomes.data(), probs.data(), outcomes.size(),
                    outcomes.data(), probs.data(), outcomes.size(),
                    weights.data(), filter, want.data());
                for (const HammerKernels *kernels : supportedKernels()) {
                    std::vector<double> got(outcomes.size(), -1.0);
                    kernels->scoreRows(outcomes.data(), probs.data(),
                                       outcomes.size(), outcomes.data(),
                                       probs.data(), outcomes.size(),
                                       weights.data(), filter, got.data());
                    for (std::size_t r = 0; r < got.size(); ++r)
                        ASSERT_EQ(got[r], want[r])
                            << hammer::common::tierName(kernels->tier)
                            << " n=" << n << " dmax=" << dmax
                            << " filter=" << filter << " row " << r;
                }
            }
            // The same radius end to end, against the oracle too.
            HammerConfig config;
            config.maxDistance = static_cast<int>(dmax);
            config.threads = 1;
            checkAllTiers(d, config, Mass::Random,
                          describe(n, outcomes.size(), Mass::Random,
                                   config));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(HammerKernels, EveryConfigMatchesScalarTierAndOracle)
{
    // Radius 0..n, filter on/off, all weight schemes and combines,
    // supports at and around the 8-row block and the 64-row chunk.
    std::uint64_t seed = 100;
    for (const int n : {4, 11}) {
        for (const std::size_t support :
             {std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{257}}) {
            if (support > (std::size_t{1} << n))
                continue;
            for (const Mass mass :
                 {Mass::Dyadic, Mass::Per1000, Mass::Random}) {
                const Distribution input =
                    histogram(n, support, mass, ++seed);
                for (int radius = 0; radius <= n; ++radius) {
                    for (const bool filter : {true, false}) {
                        for (const auto scheme :
                             {WeightScheme::InverseChs,
                              WeightScheme::Uniform,
                              WeightScheme::InverseBinomial}) {
                            for (const auto combine :
                                 {ScoreCombine::Multiplicative,
                                  ScoreCombine::Additive}) {
                                HammerConfig config;
                                config.maxDistance = radius;
                                config.filterLowerProbability = filter;
                                config.weightScheme = scheme;
                                config.scoreCombine = combine;
                                config.threads = 1;
                                checkAllTiers(
                                    input, config, mass,
                                    describe(n, support, mass, config));
                                if (HasFatalFailure())
                                    return;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(HammerKernels, EveryWidthFromOneToSixtyFour)
{
    std::uint64_t seed = 900;
    for (int n = 1; n <= 64; ++n) {
        for (const std::size_t support :
             {std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{257}}) {
            if (n < 63 && support > (std::size_t{1} << n))
                continue;
            for (const Mass mass :
                 {Mass::Dyadic, Mass::Per1000, Mass::Random}) {
                const Distribution input =
                    histogram(n, support, mass, ++seed);
                for (const int radius : {-1, n}) {
                    HammerConfig config;
                    config.maxDistance = radius;
                    config.threads = 1;
                    checkAllTiers(input, config, mass,
                                  describe(n, support, mass, config));
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(HammerKernels, BitIdenticalAcrossThreadCounts)
{
    for (const Mass mass : {Mass::Dyadic, Mass::Random}) {
        const Distribution input = histogram(16, 1000, mass, 77);
        for (const bool filter : {true, false}) {
            HammerConfig serial;
            serial.filterLowerProbability = filter;
            serial.threads = 1;
            HammerStats serial_stats;
            const Distribution reference =
                reconstruct(input, serial, &serial_stats);
            for (const HammerKernels *kernels : supportedKernels()) {
                KernelsGuard guard(kernels);
                for (int threads = 1; threads <= 4; ++threads) {
                    HammerConfig config = serial;
                    config.threads = threads;
                    HammerStats stats;
                    const std::string what =
                        std::string(hammer::common::tierName(
                            kernels->tier)) +
                        ", " + std::to_string(threads) + " threads";
                    expectSameBits(reconstruct(input, config, &stats),
                                   reference, what);
                    expectSameBits(stats, serial_stats, what);
                    EXPECT_EQ(stats.scoredPairs, serial_stats.scoredPairs)
                        << what;
                }
            }
        }
    }
}

/** Distinct n-bit outcomes clustered around a random centre. */
std::vector<Bits>
clusteredOutcomes(int n, std::size_t support, std::uint64_t seed)
{
    const Distribution d = histogram(n, support, Mass::Dyadic, seed);
    std::vector<Bits> outcomes;
    for (const Entry &e : d.entries())
        outcomes.push_back(e.outcome);
    return outcomes;
}

/**
 * Every tier's countLayers against the scalar scan: each outcome's
 * row, and a few strings outside the support, must read the same
 * counts as countDistances over the whole support.
 */
void
expectLayersMatchScan(const std::vector<Bits> &outcomes, int n,
                      std::size_t bins, Rng &rng, const std::string &what)
{
    std::vector<Bits> rows = outcomes;
    for (int k = 0; k < 8; ++k)
        rows.push_back(randomBits(rng, n));
    std::vector<std::vector<std::uint64_t>> want;
    for (const Bits x : rows) {
        std::vector<std::uint64_t> counts(bins);
        kScalarHammerKernels.countDistances(x, outcomes.data(),
                                            outcomes.size(), bins,
                                            counts.data());
        want.push_back(counts);
    }
    std::vector<std::uint16_t> planes;
    for (const HammerKernels *kernels : supportedKernels()) {
        planes.assign(layerPlaneBytes(n, bins) / sizeof(std::uint16_t),
                      0xbeef);
        kernels->countLayers(outcomes.data(), outcomes.size(), n, bins,
                             planes.data());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t d = 0; d < bins; ++d)
                ASSERT_EQ(planes[(d << n) + rows[r]], want[r][d])
                    << what << " "
                    << hammer::common::tierName(kernels->tier) << " row "
                    << r << " d=" << d;
        }
    }
}

TEST(HammerKernels, CountLayersMatchesScanOnEveryTier)
{
    // Every radius up to 16 bits; past that radius 7 (the vector
    // tiers' 8-plane register block) and the default (the 16-plane
    // block).
    Rng rng(23);
    std::uint64_t seed = 1200;
    for (int n = 1; n <= 20; ++n) {
        std::vector<int> radii;
        if (n <= 16) {
            for (int dmax = 0; dmax <= n; ++dmax)
                radii.push_back(dmax);
        } else {
            radii = {0, 7, defaultMaxDistance(n)};
        }
        const std::size_t support =
            std::min<std::size_t>(std::size_t{1} << (n - 1), 300);
        const std::vector<Bits> outcomes =
            clusteredOutcomes(n, support, ++seed);
        for (const int dmax : radii) {
            expectLayersMatchScan(outcomes, n,
                                  static_cast<std::size_t>(dmax) + 1, rng,
                                  "n=" + std::to_string(n) +
                                      " dmax=" + std::to_string(dmax));
            if (HasFatalFailure())
                return;
        }
    }
    // 14 bits at the default radius, on the scan's side of the
    // crossover and on the DP's.
    const int dmax = defaultMaxDistance(14);
    for (const std::size_t support : {std::size_t{400}, std::size_t{2000}}) {
        EXPECT_EQ(preferLayers(14, support, dmax, 1), support > 400);
        expectLayersMatchScan(clusteredOutcomes(14, support, ++seed), 14,
                              static_cast<std::size_t>(dmax) + 1, rng,
                              "n=14 N=" + std::to_string(support));
    }
}

TEST(HammerKernels, CountLayersOnEmptyAndOneOutcomeSupports)
{
    Rng rng(29);
    for (const int n : {1, 3, 5, 6, 9, 14}) {
        const auto bins = static_cast<std::size_t>(n) + 1;
        expectLayersMatchScan({}, n, bins, rng,
                              "empty n=" + std::to_string(n));
        expectLayersMatchScan({randomBits(rng, n)}, n, bins, rng,
                              "one outcome n=" + std::to_string(n));
        if (HasFatalFailure())
            return;
    }
}

TEST(HammerKernels, CountLayersOnTheFullSixteenBitCube)
{
    // N = 65536 > 0xffff, yet every count is C(16, d) <= 12870, so
    // the uint16 planes hold them all.
    constexpr int n = 16;
    ASSERT_TRUE(layerCountsFit(n, std::size_t{1} << n));
    std::vector<Bits> cube(std::size_t{1} << n);
    for (std::size_t x = 0; x < cube.size(); ++x)
        cube[x] = x;
    std::vector<std::uint16_t> planes;
    for (const std::size_t bins :
         {std::size_t{1}, std::size_t{8}, std::size_t{9},
          std::size_t{n + 1}}) {
        for (const HammerKernels *kernels : supportedKernels()) {
            planes.assign(layerPlaneBytes(n, bins) / sizeof(std::uint16_t),
                          0xbeef);
            kernels->countLayers(cube.data(), cube.size(), n, bins,
                                 planes.data());
            for (std::size_t d = 0; d < bins; ++d) {
                const auto want = static_cast<std::uint16_t>(
                    hammer::common::binomial(n, static_cast<int>(d)));
                for (std::size_t x = 0; x < cube.size(); ++x)
                    ASSERT_EQ(planes[(d << n) + x], want)
                        << hammer::common::tierName(kernels->tier)
                        << " bins=" << bins << " d=" << d << " x=" << x;
            }
        }
    }
}

TEST(HammerKernels, PreferLayersFollowsCostAndCaps)
{
    // A 14-bit job at the default radius: the scan wins on a sparse
    // support, the DP on a dense one, and sharing the scan across
    // workers moves the crossover up by sqrt(threads).
    const int dmax = defaultMaxDistance(14);
    EXPECT_FALSE(preferLayers(14, 200, dmax, 1));
    EXPECT_TRUE(preferLayers(14, 6000, dmax, 1));
    std::size_t serial = 1;
    while (!preferLayers(14, serial, dmax, 1))
        ++serial;
    std::size_t four = serial;
    while (!preferLayers(14, four, dmax, 4))
        ++four;
    EXPECT_GT(serial, 300u);
    EXPECT_LT(serial, 2000u);
    EXPECT_NEAR(static_cast<double>(four) / static_cast<double>(serial),
                2.0, 0.05);
    // Planes beyond kMaxLayerPlaneBytes stay on the scan however large
    // N grows: 18 bits at radius 8 need 4.5 MiB.
    EXPECT_GT(layerPlaneBytes(18, 9), kMaxLayerPlaneBytes);
    EXPECT_FALSE(preferLayers(18, 60000, 8, 1));
    EXPECT_TRUE(preferLayers(18, 60000, 2, 1));
    EXPECT_FALSE(preferLayers(kMaxLayerBits + 1, 60000, 0, 1));
    // uint16 counts: N > 0xffff fits only up to 16 bits.
    EXPECT_TRUE(layerCountsFit(16, 65536));
    EXPECT_TRUE(layerCountsFit(20, 0xffff));
    EXPECT_FALSE(layerCountsFit(17, 0x10000));
    EXPECT_FALSE(preferLayers(17, 0x10000, 1, 1));
}

TEST(HammerKernels, BothStep1PathsGiveTheSameBits)
{
    // Supports on both sides of the crossover (about 750 outcomes at
    // 14 bits on one thread, twice that on four), 1/3/4 threads,
    // every tier: reconstruct, reconstructFast, hammerWeights and the
    // stats under the forced scan, the forced DP and the cost rule.
    std::uint64_t seed = 1500;
    for (const auto &[n, support] :
         std::vector<std::pair<int, std::size_t>>{
             {9, 40}, {12, 300}, {12, 1500}, {14, 400}, {14, 900}}) {
        for (const Mass mass : {Mass::Dyadic, Mass::Random}) {
            const Distribution input = histogram(n, support, mass, ++seed);
            HammerConfig config;
            config.threads = 1;
            HammerStats ref_stats, ref_fast_stats;
            Distribution reference(n), reference_fast(n);
            std::vector<double> ref_weights;
            {
                KernelsGuard kernels(&kScalarHammerKernels);
                Step1Guard path(Step1Path::Scan);
                reference = reconstruct(input, config, &ref_stats);
                reference_fast =
                    reconstructFast(input, config, &ref_fast_stats);
                ref_weights = hammerWeights(input, config);
            }
            for (const HammerKernels *kernels : supportedKernels()) {
                KernelsGuard kernel_guard(kernels);
                for (const Step1Path path :
                     {Step1Path::Scan, Step1Path::Layers,
                      Step1Path::ByCost}) {
                    Step1Guard path_guard(path);
                    for (const int threads : {1, 3, 4}) {
                        config.threads = threads;
                        const std::string what =
                            describe(n, support, mass, config) + " " +
                            hammer::common::tierName(kernels->tier) +
                            " path=" +
                            std::to_string(static_cast<int>(path)) +
                            " threads=" + std::to_string(threads);
                        HammerStats stats, fast_stats;
                        expectSameBits(reconstruct(input, config, &stats),
                                       reference, what);
                        expectSameBits(stats, ref_stats, what);
                        expectSameBits(
                            reconstructFast(input, config, &fast_stats),
                            reference_fast, what + " fast");
                        expectSameBits(fast_stats, ref_fast_stats,
                                       what + " fast");
                        EXPECT_EQ(hammerWeights(input, config), ref_weights)
                            << what;
                        if (HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(HammerKernels, WeightsAgreeAcrossEveryEntryPoint)
{
    // hammerWeights(), reconstruct() and reconstructFast() share one
    // Step-1 kernel, so their weights agree bit for bit; the spectrum
    // module's symmetric loop is the independent reference.
    for (const Mass mass : {Mass::Dyadic, Mass::Per1000, Mass::Random}) {
        const Distribution input = histogram(12, 400, mass, 31);
        for (const int radius : {-1, 0, 3, 12}) {
            for (const auto scheme :
                 {WeightScheme::InverseChs, WeightScheme::Uniform,
                  WeightScheme::InverseBinomial}) {
                HammerConfig config;
                config.maxDistance = radius;
                config.weightScheme = scheme;
                HammerStats slow, fast;
                reconstruct(input, config, &slow);
                reconstructFast(input, config, &fast);
                const std::vector<double> weights =
                    hammerWeights(input, config);
                ASSERT_EQ(weights.size(), slow.weights.size());
                ASSERT_EQ(fast.weights.size(), slow.weights.size());
                for (std::size_t d = 0; d < weights.size(); ++d) {
                    EXPECT_EQ(weights[d], slow.weights[d]) << d;
                    EXPECT_EQ(fast.weights[d], slow.weights[d]) << d;
                    EXPECT_EQ(fast.aggregateChs[d], slow.aggregateChs[d])
                        << d;
                }
                const std::vector<double> chs =
                    aggregateChs(input, slow.maxDistance);
                for (std::size_t d = 0; d < chs.size(); ++d) {
                    if (mass == Mass::Dyadic)
                        EXPECT_EQ(slow.aggregateChs[d], chs[d]) << d;
                    else
                        EXPECT_TRUE(
                            relativelyClose(slow.aggregateChs[d], chs[d]))
                            << d;
                }
            }
        }
    }
}

/** A shot histogram: distinct outcomes and their shot counts. */
struct Shots
{
    int numBits = 0;
    std::vector<Bits> outcomes; ///< Ascending, distinct.
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;

    Distribution distribution() const
    {
        std::vector<Entry> entries;
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            entries.push_back({outcomes[i],
                               static_cast<double>(counts[i]) /
                                   static_cast<double>(total)});
        return Distribution::fromSorted(numBits, std::move(entries));
    }
};

/**
 * @p support distinct n-bit outcomes clustered around a random
 * centre, one shot each, plus the rest of @p total shots spread over
 * at most @p heavy of them: heavy ties at count 1 and among the heavy
 * outcomes.  With @p total == 0 every outcome keeps one shot of
 * support, so all probabilities are equal.
 */
Shots
tiedShots(int n, std::size_t support, std::size_t heavy,
          std::uint64_t total, std::uint64_t seed)
{
    Rng rng(seed);
    const Bits centre = randomBits(rng, n);
    Shots shots;
    shots.numBits = n;
    while (shots.outcomes.size() < support) {
        while (shots.outcomes.size() < support) {
            Bits x = centre;
            const int flips = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(n) + 1));
            for (int f = 0; f < flips; ++f)
                x ^= Bits{1} << rng.uniformInt(static_cast<std::uint64_t>(n));
            shots.outcomes.push_back(x);
        }
        std::sort(shots.outcomes.begin(), shots.outcomes.end());
        shots.outcomes.erase(
            std::unique(shots.outcomes.begin(), shots.outcomes.end()),
            shots.outcomes.end());
    }
    shots.counts.assign(support, 1);
    shots.total = total == 0 ? support : total;
    heavy = std::min(heavy, support);
    std::vector<std::size_t> picks;
    for (std::size_t k = 0; k < heavy; ++k)
        picks.push_back(rng.uniformInt(support));
    for (std::uint64_t left = shots.total - support; left > 0; --left)
        ++shots.counts[picks[rng.uniformInt(heavy)]];
    return shots;
}

/**
 * scoreSupport's pair count, from its definition: rows x run length
 * over rank chunks, the run of a chunk being every outcome less
 * probable than its most probable row.
 */
std::uint64_t
expectedScoredPairs(std::vector<double> probs, bool filter)
{
    const std::size_t count = probs.size();
    if (!filter)
        return static_cast<std::uint64_t>(count) * count;
    std::sort(probs.begin(), probs.end());
    std::uint64_t pairs = 0;
    for (std::size_t begin = 0; begin < count; begin += kRankChunk) {
        const std::size_t end = std::min(count, begin + kRankChunk);
        const auto run = static_cast<std::uint64_t>(
            std::lower_bound(probs.begin(), probs.end(), probs[end - 1]) -
            probs.begin());
        pairs += (end - begin) * run;
    }
    return pairs;
}

TEST(HammerKernels, RankedStep3MatchesTheFullRunBitForBit)
{
    // Shot-quantized histograms with heavy ties and all-equal ones
    // (every run empty), at and around the kernels' 32-row blocks and
    // the 64-row rank chunks, and 64k +- 1 outcomes; table-lookup
    // weights (radius 6) and gathered ones (radius 20).  Reference:
    // the scalar kernel over every row (a sample of rows at 64k)
    // against the whole support.  Filter off at 64k would be the
    // unchanged 4e9-pair full scan, so it runs up to 65 outcomes.
    struct Case
    {
        std::size_t support;
        std::size_t heavy;
        std::uint64_t total;
    };
    std::vector<Case> cases;
    for (const std::size_t support :
         {std::size_t{1}, std::size_t{31}, std::size_t{32},
          std::size_t{33}, std::size_t{63}, std::size_t{64},
          std::size_t{65}}) {
        cases.push_back({support, support / 3 + 1, 8192});
        cases.push_back({support, 0, 0});
    }
    cases.push_back({65535, 100, 1 << 17});
    cases.push_back({65537, 100, 1 << 17});
    cases.push_back({65537, 0, 0});
    std::uint64_t seed = 2100;
    for (const Case &c : cases) {
        const Shots shots = tiedShots(24, c.support, c.heavy, c.total,
                                      ++seed);
        std::vector<double> probs;
        for (const std::uint64_t k : shots.counts)
            probs.push_back(static_cast<double>(k) /
                            static_cast<double>(shots.total));
        const std::size_t count = probs.size();
        const bool large = count > 4096;
        std::vector<std::size_t> rows;
        for (std::size_t i = 0; i < count; ++i) {
            if (!large || i % 251 == 0 || shots.counts[i] > 1 ||
                i + 1 == count)
                rows.push_back(i);
        }
        std::vector<Bits> row_outcomes;
        std::vector<double> row_probs;
        for (const std::size_t i : rows) {
            row_outcomes.push_back(shots.outcomes[i]);
            row_probs.push_back(probs[i]);
        }
        for (const int radius : {6, 20}) {
            std::vector<double> weights(kDistanceBins, 0.0);
            for (int d = 1; d <= radius; ++d)
                weights[static_cast<std::size_t>(d)] = 1.0 / (d + 2);
            for (const bool filter : {true, false}) {
                if (large && !filter)
                    continue;
                const std::string what =
                    "N=" + std::to_string(count) + " total=" +
                    std::to_string(shots.total) + " radius=" +
                    std::to_string(radius) +
                    " filter=" + std::to_string(filter);
                std::vector<double> want(rows.size());
                kScalarHammerKernels.scoreRows(
                    row_outcomes.data(), row_probs.data(), rows.size(),
                    shots.outcomes.data(), probs.data(), count,
                    weights.data(), filter, want.data());
                const std::uint64_t pairs =
                    expectedScoredPairs(probs, filter);
                if (c.total == 0 && filter) {
                    EXPECT_EQ(pairs, 0u) << what;
                }
                for (const HammerKernels *kernels : supportedKernels()) {
                    KernelsGuard guard(kernels);
                    for (const int threads : {1, 3}) {
                        std::vector<double> got(count, -1.0);
                        EXPECT_EQ(scoreSupport(shots.outcomes.data(),
                                               probs.data(), count,
                                               weights.data(), filter,
                                               threads, got.data()),
                                  pairs)
                            << what;
                        for (std::size_t r = 0; r < rows.size(); ++r)
                            ASSERT_EQ(got[rows[r]], want[r])
                                << what << " "
                                << hammer::common::tierName(kernels->tier)
                                << " threads=" << threads << " row "
                                << rows[r];
                    }
                }
            }
        }
    }
}

TEST(HammerKernels, RankedStep3MatchesNeighborhoodScore)
{
    // The per-outcome Eq. 2 loop is the independent reference: with
    // reconstruct()'s weights, every row's ranked score equals
    // neighborhoodScore bit for bit, on every tier.  Radius 20 with
    // uniform weights forces the AVX-512 tier's gather path.
    std::uint64_t seed = 2200;
    for (const std::size_t support :
         {std::size_t{1}, std::size_t{33}, std::size_t{65},
          std::size_t{150}}) {
        for (const std::uint64_t total : {std::uint64_t{8192},
                                          std::uint64_t{0}}) {
            const Shots shots =
                tiedShots(24, support, support / 4 + 1, total, ++seed);
            const Distribution input = shots.distribution();
            std::vector<double> probs;
            for (const Entry &e : input.entries())
                probs.push_back(e.probability);
            for (const auto &[radius, scheme] :
                 std::vector<std::pair<int, WeightScheme>>{
                     {-1, WeightScheme::InverseChs},
                     {20, WeightScheme::Uniform},
                     {20, WeightScheme::InverseChs}}) {
                for (const bool filter : {true, false}) {
                    HammerConfig config;
                    config.maxDistance = radius;
                    config.weightScheme = scheme;
                    config.filterLowerProbability = filter;
                    config.threads = 1;
                    const std::vector<double> weights =
                        hammerWeights(input, config);
                    std::vector<double> weights_ext(kDistanceBins, 0.0);
                    std::copy(weights.begin() + 1, weights.end(),
                              weights_ext.begin() + 1);
                    std::vector<double> want;
                    for (const Entry &e : input.entries())
                        want.push_back(
                            neighborhoodScore(input, e.outcome, config));
                    for (const HammerKernels *kernels :
                         supportedKernels()) {
                        KernelsGuard guard(kernels);
                        std::vector<double> got(probs.size(), -1.0);
                        scoreSupport(shots.outcomes.data(), probs.data(),
                                     probs.size(), weights_ext.data(),
                                     filter, 1, got.data());
                        for (std::size_t i = 0; i < got.size(); ++i)
                            ASSERT_EQ(got[i], want[i])
                                << hammer::common::tierName(kernels->tier)
                                << " N=" << support << " total=" << total
                                << " radius=" << radius << " filter="
                                << filter << " row " << i;
                    }
                }
            }
        }
    }
}

TEST(HammerKernels, TiedHistogramsBitIdenticalAcrossTiersAndThreads)
{
    // A sweep-shaped job: 13 bits, 8192 shots, most outcomes seen
    // once.  reconstruct() matches the oracle bit for bit and gives
    // the same bits and stats on every tier at 1, 2 and 4 threads.
    const Shots shots = tiedShots(13, 2000, 400, 8192, 2300);
    const Distribution input = shots.distribution();
    for (const bool filter : {true, false}) {
        HammerConfig serial;
        serial.filterLowerProbability = filter;
        serial.threads = 1;
        checkAllTiers(input, serial, Mass::Dyadic,
                      describe(13, input.support(), Mass::Dyadic, serial));
        HammerStats serial_stats;
        const Distribution reference =
            reconstruct(input, serial, &serial_stats);
        for (const HammerKernels *kernels : supportedKernels()) {
            KernelsGuard guard(kernels);
            for (const int threads : {1, 2, 4}) {
                HammerConfig config = serial;
                config.threads = threads;
                HammerStats stats;
                const std::string what =
                    std::string(hammer::common::tierName(kernels->tier)) +
                    ", filter=" + std::to_string(filter) + ", " +
                    std::to_string(threads) + " threads";
                expectSameBits(reconstruct(input, config, &stats),
                               reference, what);
                expectSameBits(stats, serial_stats, what);
                EXPECT_EQ(stats.scoredPairs, serial_stats.scoredPairs)
                    << what;
            }
        }
    }
}

TEST(HammerKernels, PairOperationsStayLogicalUnderRankedStep3)
{
    // pairOperations is Algorithm 1's 2 N (N - 1) whatever Step 3
    // skips; scoredPairs is the work done, far below N^2 on a tied
    // shot histogram and exactly N^2 with the filter off.
    const Shots shots = tiedShots(13, 1500, 300, 8192, 2400);
    const Distribution input = shots.distribution();
    const std::uint64_t count = input.support();
    std::vector<double> probs;
    for (const Entry &e : input.entries())
        probs.push_back(e.probability);
    for (const bool filter : {true, false}) {
        HammerConfig config;
        config.filterLowerProbability = filter;
        HammerStats stats;
        reconstruct(input, config, &stats);
        EXPECT_EQ(stats.pairOperations, 2 * count * (count - 1));
        EXPECT_EQ(stats.scoredPairs, expectedScoredPairs(probs, filter));
        if (filter) {
            EXPECT_LT(stats.scoredPairs, count * count / 2);
        } else {
            EXPECT_EQ(stats.scoredPairs, count * count);
        }
    }
}

} // namespace
