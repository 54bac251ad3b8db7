/**
 * @file
 * The channel shot lanes against the scalar shot loop, bit for bit.
 *
 * Every test compares each lane-kernel tier the host runs with the
 * scalar loop forced through setActiveShotLanes(&kScalarShotLanes),
 * in one binary.  "Batch" in the suite name puts them on every
 * tier_parity_noise_* leg too.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "circuits/qaoa_circuit.hpp"
#include "circuits/transpiler.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "noise/shot_lanes.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::KernelTier;
using hammer::common::Rng;
using hammer::core::Distribution;
using namespace hammer::circuits;
using namespace hammer::noise;

/** Every lane-kernel table this host runs, once each. */
std::vector<const ShotLanes *>
laneTables()
{
    std::vector<const ShotLanes *> tables;
    for (KernelTier tier : hammer::common::supportedTiers()) {
        const ShotLanes *lanes = shotLanesForTier(tier);
        if (lanes->run != nullptr && lanes->tier == tier)
            tables.push_back(lanes);
    }
    return tables;
}

/** Restores the probed lanes when a test ends, pass or fail. */
struct LaneOverride
{
    ~LaneOverride() { setActiveShotLanes(nullptr); }
};

void
expectIdentical(const Distribution &a, const Distribution &b,
                const std::string &what)
{
    ASSERT_EQ(a.numBits(), b.numBits()) << what;
    ASSERT_EQ(a.entries().size(), b.entries().size()) << what;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        ASSERT_EQ(a.entries()[i].outcome, b.entries()[i].outcome)
            << what << " entry " << i;
        ASSERT_EQ(a.entries()[i].probability, b.entries()[i].probability)
            << what << " entry " << i;
    }
}

/**
 * sampleBatch under every lane table against the scalar loop, at each
 * thread count, from one seed.
 */
void
expectLanesMatchScalar(ChannelSampler &sampler, const RoutedCircuit &routed,
                       int measured, int shots, std::uint64_t seed)
{
    LaneOverride restore;
    for (int threads : {1, 3, 4}) {
        setActiveShotLanes(&kScalarShotLanes);
        Rng scalar_rng(seed);
        const Distribution scalar = sampler.sampleBatch(
            routed, measured, shots, scalar_rng, threads);
        for (const ShotLanes *lanes : laneTables()) {
            setActiveShotLanes(lanes);
            Rng rng(seed);
            const Distribution got =
                sampler.sampleBatch(routed, measured, shots, rng, threads);
            expectIdentical(
                scalar, got,
                std::string(hammer::common::tierName(lanes->tier)) +
                    " m=" + std::to_string(measured) +
                    " shots=" + std::to_string(shots) +
                    " threads=" + std::to_string(threads));
            // The caller's stream advances the same either way.
            EXPECT_EQ(rng(), Rng(scalar_rng)()) << "caller stream";
        }
    }
}

/** QAOA on a random 3-regular graph routed onto a line (SWAPs). */
RoutedCircuit
routedQaoa(int n)
{
    Rng graph_rng(21);
    const auto g = hammer::graph::kRegular(n, 3, graph_rng);
    return transpile(qaoaCircuit(g, linearRampParams(1)),
                     CouplingMap::line(n));
}

/** Every channel on: scramble, burst and coherent over-rotation. */
ChannelParams
allChannels()
{
    ChannelParams params;
    params.coherentPer2q = 0.02;
    params.burstPattern = 0b1011001;
    params.burstProbability = 0.03;
    return params;
}

TEST(ShotLanesBatch, MatchScalarAcrossShotCounts)
{
    const RoutedCircuit routed = routedQaoa(12);
    ChannelSampler sampler(machinePreset("machineB"), allChannels());
    ASSERT_GT(sampler.scrambleProbability(routed), 0.0);
    for (int shots : {1, 1023, 1024, 1025, 5000, 8192, 9 * 1024 + 7})
        expectLanesMatchScalar(sampler, routed, 12, shots, 40 + shots);
}

TEST(ShotLanesBatch, MatchScalarAcrossMeasuredWidths)
{
    // m = 16 is the dense-count cap, m = 17 the CountAccumulator path.
    const RoutedCircuit routed = routedQaoa(18);
    ChannelSampler sampler(machinePreset("machineB"), allChannels());
    for (int measured : {1, 12, 16, 17})
        expectLanesMatchScalar(sampler, routed, measured, 3001, measured);
}

TEST(ShotLanesBatch, MatchScalarWithoutScramble)
{
    ChannelParams params = allChannels();
    params.scramblePer2q = 0.0;
    ChannelSampler sampler(machinePreset("machineB"), params);
    const RoutedCircuit routed = routedQaoa(12);
    ASSERT_EQ(sampler.scrambleProbability(routed), 0.0);
    expectLanesMatchScalar(sampler, routed, 12, 5000, 7);
}

TEST(ShotLanesBatch, MatchScalarNearMaxScramble)
{
    // Most shots take the scramble exit, so lanes sit masked through
    // most of the other channels' draws.
    ChannelParams params = allChannels();
    params.scramblePer2q = 50.0;
    ChannelSampler sampler(machinePreset("machineB"), params);
    const RoutedCircuit routed = routedQaoa(12);
    ASSERT_EQ(sampler.scrambleProbability(routed), params.maxScramble);
    expectLanesMatchScalar(sampler, routed, 12, 5000, 8);
}

TEST(ShotLanesBatch, MatchScalarWhenLanesDivergeOnZeroFlips)
{
    // No 1q error and no read-1-from-0 error: a bit touched only by
    // 1q gates has flip0 == 0.0 and flip1 > 0, so each lane draws for
    // it only when it reads 1 — lanes draw different counts.
    NoiseModel model;
    model.p1q = 0.0;
    model.p2q = 0.02;
    model.readout01 = 0.0;
    model.readout10 = 0.05;
    hammer::sim::Circuit circuit(10);
    for (int q = 0; q < 10; ++q)
        circuit.h(q);
    for (int q = 0; q + 1 < 5; ++q)
        circuit.cx(q, q + 1);
    const RoutedCircuit routed =
        transpile(circuit, CouplingMap::full(10));
    ChannelSampler sampler(model);
    expectLanesMatchScalar(sampler, routed, 10, 5000, 9);
    ChannelParams params;
    params.burstPattern = 0b101;
    params.burstProbability = 0.1;
    ChannelSampler burst(model, params);
    expectLanesMatchScalar(burst, routed, 10, 2049, 10);
}

TEST(ShotLanesBatch, OutcomeCdfSearchMatchesUpperBound)
{
    // Zero-probability runs at the start, in the middle and at the
    // end, so entries repeat.
    hammer::sim::StateVector state(6);
    for (Bits i = 0; i < 64; ++i) {
        const bool zero = i < 3 || (i >= 20 && i < 31) || i >= 60;
        state.setAmplitude(i, zero ? hammer::sim::Amp(0.0, 0.0)
                                   : hammer::sim::Amp(0.1 + 0.01 * i, 0.0));
    }
    const hammer::sim::OutcomeCdf cdf(state);
    const double *entries = cdf.data();
    const double inf = std::numeric_limits<double>::infinity();

    std::vector<double> draws = {0.0, -0.0, cdf.total(),
                                 std::nextafter(cdf.total(), inf),
                                 2.0 * cdf.total(), inf,
                                 std::numeric_limits<double>::quiet_NaN()};
    for (std::size_t i = 0; i < cdf.dimension(); ++i) {
        draws.push_back(entries[i]);
        draws.push_back(std::nextafter(entries[i], -inf));
        draws.push_back(std::nextafter(entries[i], inf));
    }
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        draws.push_back(rng.uniform() * cdf.total());

    for (const ShotLanes *lanes : laneTables()) {
        std::vector<std::uint32_t> got(draws.size());
        lanes->outcomes(entries, cdf.dimension(), draws.data(),
                        draws.size(), got.data());
        for (std::size_t i = 0; i < draws.size(); ++i) {
            EXPECT_EQ(Bits{got[i]}, cdf.outcome(draws[i]))
                << hammer::common::tierName(lanes->tier) << " r="
                << draws[i];
        }
    }
}

TEST(ShotLanesBatch, OutcomeCdfSearchOnABasisState)
{
    // |0> on one qubit: entries {1, 1}, so every draw at or past the
    // total clamps to the last state.
    hammer::sim::StateVector state(1);
    const hammer::sim::OutcomeCdf cdf(state);
    const std::vector<double> draws = {0.0, 0.5, 1.0, 3.0};
    for (const ShotLanes *lanes : laneTables()) {
        std::vector<std::uint32_t> got(draws.size());
        lanes->outcomes(cdf.data(), cdf.dimension(), draws.data(),
                        draws.size(), got.data());
        for (std::size_t i = 0; i < draws.size(); ++i)
            EXPECT_EQ(Bits{got[i]}, cdf.outcome(draws[i]));
    }
}

TEST(ShotLanesBatch, BernoulliBoundIsTheUniformCompare)
{
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    const double two53 = 0x1.0p-53;
    const std::vector<double> probabilities = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        std::nextafter(two53, 0.0),
        two53,
        std::nextafter(two53, 1.0),
        0.5,
        std::nextafter(1.0, 0.0),
        1.0,
        1.5,
        -0.25,
        std::numeric_limits<double>::quiet_NaN(),
        0.1,
        1.0 / 3.0};
    for (double p : probabilities) {
        const std::uint64_t bound = bernoulliBound(p);
        EXPECT_EQ(bound != 0, p > 0.0) << p;
        EXPECT_LE(bound, kTop) << p;
        // k < bound exactly when k * 2^-53 < p, checked at the
        // bound's edges and the ends of the range.
        for (std::uint64_t k :
             {std::uint64_t{0}, std::uint64_t{1}, bound - 1, bound,
              bound + 1, kTop - 1}) {
            if (k >= kTop)
                continue;
            EXPECT_EQ(k < bound, static_cast<double>(k) * two53 < p)
                << "p=" << p << " k=" << k;
        }
    }
    // Rng::uniform() is (x >> 11) * 2^-53 of the raw draw x, so the
    // integer trial equals bernoulli() on a live stream.
    Rng a(17);
    Rng b(17);
    for (int i = 0; i < 2000; ++i) {
        const double p = i < 1000 ? 0.01 * (i % 101) : a.uniform();
        if (i >= 1000)
            b.uniform();
        const std::uint64_t x = a();
        EXPECT_EQ((x >> 11) < bernoulliBound(p), b.bernoulli(p)) << p;
    }
}

} // namespace
