/**
 * @file
 * Unit tests for the analytic channel sampler, including the
 * cross-check against the trajectory backend that justifies using it
 * for the large sweeps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "circuits/bv.hpp"
#include "circuits/ghz.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "circuits/transpiler.hpp"
#include "core/ehd.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/simulator.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;
using hammer::sim::Circuit;
using namespace hammer::circuits;
using namespace hammer::noise;

TEST(ChannelSampler, IdealNoiseReproducesIdealOutput)
{
    const auto routed = trivialRouting(bernsteinVazirani(5, 0b10101));
    ChannelSampler sampler(machinePreset("ideal"));
    Rng rng(1);
    const Distribution dist = sampler.sample(routed, 5, 3000, rng);
    EXPECT_EQ(dist.support(), 1u);
    EXPECT_NEAR(dist.probability(0b10101), 1.0, 1e-12);
}

TEST(ChannelSampler, FlipProbabilitiesGrowWithGateCount)
{
    ChannelSampler sampler(machinePreset("machineA"));
    const auto light = trivialRouting(bernsteinVazirani(6, 0b000001));
    const auto heavy = trivialRouting(bernsteinVazirani(6, 0b111111));
    const auto flips_light = sampler.gateFlipProbabilities(light);
    const auto flips_heavy = sampler.gateFlipProbabilities(heavy);
    // The ancilla (qubit 6) absorbs CXs proportional to key weight.
    EXPECT_GT(flips_heavy[6], flips_light[6]);
}

TEST(ChannelSampler, ScrambleGrowsWithTwoQubitCount)
{
    ChannelSampler sampler(machinePreset("machineA"));
    const auto shallow = trivialRouting(ghz(4));
    const auto deep = trivialRouting(bernsteinVazirani(10, 0b1111111111));
    EXPECT_GT(sampler.scrambleProbability(deep),
              sampler.scrambleProbability(shallow));
}

TEST(ChannelSampler, ScrambleRespectsCap)
{
    ChannelParams params;
    params.maxScramble = 0.4;
    ChannelSampler sampler(machinePreset("machineB").scaled(50.0),
                           params);
    const auto routed = trivialRouting(bernsteinVazirani(10,
                                                         0b1111111111));
    EXPECT_LE(sampler.scrambleProbability(routed), 0.4);
}

TEST(ChannelSampler, CorrelatedFlipsTrackTwoQubitPairs)
{
    // A GHZ chain puts CXs on adjacent pairs; all qubits measured.
    const auto routed = trivialRouting(ghz(5));
    ChannelSampler sampler(machinePreset("machineA"));
    const auto flips = sampler.correlatedFlips(routed, 5);
    ASSERT_EQ(flips.size(), 4u) << "one pair per chain CX";
    for (const auto &cf : flips) {
        EXPECT_EQ(cf.qubitB, cf.qubitA + 1);
        EXPECT_GT(cf.probability, 0.0);
        EXPECT_LT(cf.probability, 0.01);
    }
}

TEST(ChannelSampler, CorrelatedFlipsExcludeUnmeasuredPartners)
{
    // BV's CXs all touch the (unmeasured) ancilla, so with a direct
    // all-to-all device no correlated pair lies inside the measured
    // bits.
    const auto circuit = bernsteinVazirani(5, 0b11111);
    const auto routed = transpile(circuit, CouplingMap::full(6));
    ChannelSampler sampler(machinePreset("machineA"));
    EXPECT_TRUE(sampler.correlatedFlips(routed, 5).empty());
}

TEST(ChannelSampler, CorrelatedFlipProbabilityGrowsWithGateCount)
{
    Circuit few(2), many(2);
    few.cx(0, 1);
    for (int i = 0; i < 20; ++i)
        many.cx(0, 1);
    ChannelSampler sampler(machinePreset("machineA"));
    const auto f = sampler.correlatedFlips(trivialRouting(few), 2);
    const auto m = sampler.correlatedFlips(trivialRouting(many), 2);
    ASSERT_EQ(f.size(), 1u);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_GT(m.front().probability, f.front().probability);
}

TEST(ChannelSampler, CorrelatedErrorsProduceDominantDoubleFlips)
{
    // With strong two-qubit noise on one adjacent pair, the
    // double-flip outcome must out-weigh the product of the two
    // single-flip outcomes (the correlation signature of Section
    // 4.2's dominant incorrect outcomes).
    Circuit c(4);
    c.x(0).x(1).x(2).x(3);
    for (int i = 0; i < 12; ++i)
        c.cx(0, 1);
    NoiseModel model{0.0, 0.03, 0.0, 0.0};
    ChannelSampler sampler(model);
    Rng rng(21);
    const auto dist = sampler.sample(trivialRouting(c), 4, 60000, rng);
    const double p_both = dist.probability(0b1100);   // bits 0,1 flip
    const double p_a = dist.probability(0b1110);
    const double p_b = dist.probability(0b1101);
    EXPECT_GT(p_both, 4.0 * p_a * p_b / dist.probability(0b1111))
        << "double flips must be correlated, not independent";
}

TEST(ChannelSampler, CoherentErrorsOffByDefault)
{
    const auto routed = trivialRouting(ghz(5));
    ChannelSampler sampler(machinePreset("machineB"));
    for (double f : sampler.coherentFlipProbabilities(routed))
        EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(ChannelSampler, CoherentFlipGrowsQuadraticallyAtSmallAngle)
{
    // sin^2(k theta) ~ (k theta)^2: doubling the gate count roughly
    // quadruples the flip probability — the signature that coherent
    // errors accumulate in amplitude, not probability.
    ChannelParams params;
    params.coherentPer2q = 0.01;
    ChannelSampler sampler(machinePreset("ideal"), params);

    Circuit few(2), many(2);
    for (int i = 0; i < 5; ++i)
        few.cx(0, 1);
    for (int i = 0; i < 10; ++i)
        many.cx(0, 1);
    const double f5 = sampler.coherentFlipProbabilities(
        trivialRouting(few))[0];
    const double f10 = sampler.coherentFlipProbabilities(
        trivialRouting(many))[0];
    EXPECT_NEAR(f10 / f5, 4.0, 0.05);
}

TEST(ChannelSampler, CoherentErrorCreatesDominantIncorrectOutcome)
{
    // The Fig. 7 / Fig. 8(a) regime: a systematically miscalibrated
    // gate makes one specific erroneous outcome beat the correct
    // answer (IST < 1).
    Circuit c(4);
    c.x(0).x(1).x(2).x(3);
    for (int i = 0; i < 16; ++i)
        c.cx(0, 1); // ~0.08 rad each -> theta ~ 1.28, sin^2 ~ 0.91
    ChannelParams params;
    params.coherentPer2q = 0.08;
    ChannelSampler sampler(NoiseModel{0.0005, 0.002, 0.005, 0.008},
                           params);
    Rng rng(33);
    const auto dist = sampler.sample(trivialRouting(c), 4, 20000, rng);
    EXPECT_LT(hammer::metrics::ist(dist, {0b1111}), 1.0)
        << "the systematic double-flip outcome should dominate";
}

TEST(ChannelSampler, ErrorsClusterInHammingSpace)
{
    const Bits key = 0b1111111111;
    const auto routed = trivialRouting(bernsteinVazirani(10, key));
    ChannelSampler sampler(machinePreset("machineB"));
    Rng rng(2);
    const Distribution dist = sampler.sample(routed, 10, 16000, rng);
    const double ehd = hammer::core::expectedHammingDistance(dist, {key});
    EXPECT_GT(ehd, 0.0);
    EXPECT_LT(ehd, hammer::core::uniformModelEhd(10) / 2.0)
        << "clustered errors must beat the uniform model";
}

TEST(ChannelSampler, AgreesWithTrajectoryBackendOnPst)
{
    // The two backends model the same physics; their PST on a small
    // BV circuit should agree within a few points.
    const Bits key = 0b10111;
    const auto routed = trivialRouting(bernsteinVazirani(5, key));
    const NoiseModel model = machinePreset("machineA").scaled(2.0);

    Rng rng_t(3), rng_c(4);
    TrajectorySampler trajectory(model, 150);
    ChannelSampler channel(model);
    const double pst_t = hammer::metrics::pst(
        trajectory.sample(routed, 5, 12000, rng_t), {key});
    const double pst_c = hammer::metrics::pst(
        channel.sample(routed, 5, 12000, rng_c), {key});
    EXPECT_NEAR(pst_t, pst_c, 0.12)
        << "backends diverge: trajectory " << pst_t << " vs channel "
        << pst_c;
}

TEST(ChannelSampler, AgreesWithTrajectoryBackendOnEhd)
{
    const Bits key = 0b111111;
    const auto routed = trivialRouting(bernsteinVazirani(6, key));
    const NoiseModel model = machinePreset("machineB").scaled(2.0);

    Rng rng_t(5), rng_c(6);
    TrajectorySampler trajectory(model, 150);
    ChannelSampler channel(model);
    const double ehd_t = hammer::core::expectedHammingDistance(
        trajectory.sample(routed, 6, 12000, rng_t), {key});
    const double ehd_c = hammer::core::expectedHammingDistance(
        channel.sample(routed, 6, 12000, rng_c), {key});
    EXPECT_NEAR(ehd_t, ehd_c, 0.35);
}

TEST(ChannelSampler, RoutedCircuitSuffersMoreThanUnrouted)
{
    // Routing adds SWAPs -> more two-qubit gates -> lower fidelity.
    Rng rng_graph(7);
    const auto g = hammer::graph::kRegular(8, 3, rng_graph);
    const auto circuit = qaoaCircuit(g, linearRampParams(1));
    const auto unrouted = trivialRouting(circuit);
    const auto routed = transpile(circuit, CouplingMap::line(8));
    ChannelSampler sampler(machinePreset("machineA"));

    Rng rng_a(8), rng_b(9);
    const auto ideal_state = hammer::sim::runCircuit(circuit);
    const auto ideal = Distribution::fromProbabilityFn(
        8, [&](std::size_t i) { return ideal_state.probability(i); });
    const auto d_unrouted = sampler.sample(unrouted, 8, 12000, rng_a);
    const auto d_routed = sampler.sample(routed, 8, 12000, rng_b);
    EXPECT_GT(hammer::metrics::classicalFidelity(d_unrouted, ideal),
              hammer::metrics::classicalFidelity(d_routed, ideal));
}

TEST(ChannelSampler, DeterministicForFixedSeed)
{
    const auto routed = trivialRouting(ghz(5));
    ChannelSampler sampler(machinePreset("machineC"));
    Rng a(10), b(10);
    const Distribution da = sampler.sample(routed, 5, 2000, a);
    const Distribution db = sampler.sample(routed, 5, 2000, b);
    ASSERT_EQ(da.support(), db.support());
    for (const auto &e : da.entries())
        EXPECT_DOUBLE_EQ(e.probability, db.probability(e.outcome));
}

TEST(ChannelSampler, RejectsBadParamsAndArguments)
{
    ChannelParams bad;
    bad.maxScramble = 1.0;
    EXPECT_THROW(ChannelSampler(machinePreset("machineA"), bad),
                 std::invalid_argument);

    const auto routed = trivialRouting(ghz(4));
    ChannelSampler sampler(machinePreset("machineA"));
    Rng rng(11);
    EXPECT_THROW(sampler.sample(routed, 0, 100, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample(routed, 4, -1, rng),
                 std::invalid_argument);
}

/**
 * FNV-1a over the width and every (outcome, probability bits) entry:
 * a histogram's exact identity in one word.
 */
std::uint64_t
histogramDigest(const Distribution &d)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](std::uint64_t word) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (word >> b) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    };
    mix(static_cast<std::uint64_t>(d.numBits()));
    for (const auto &e : d.entries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.probability, sizeof bits);
        mix(e.outcome);
        mix(bits);
    }
    return h;
}

std::string
asInitializer(const std::vector<std::uint64_t> &words)
{
    std::ostringstream os;
    os << std::hex << "{";
    for (std::uint64_t w : words)
        os << "0x" << w << "ull, ";
    os << "}";
    return os.str();
}

/**
 * QAOA on a random 3-regular graph routed onto a line: the inserted
 * SWAPs move logical qubits across physical bytes, so relabelling
 * uses more than one byte of the outcome.
 */
RoutedCircuit
pinnedRouted(int n)
{
    Rng graph_rng(21);
    const auto g = hammer::graph::kRegular(n, 3, graph_rng);
    RoutedCircuit routed = transpile(qaoaCircuit(g, linearRampParams(1)),
                                     CouplingMap::line(n));
    EXPECT_GT(n, 8);
    EXPECT_GT(routed.addedSwaps, 0);
    return routed;
}

/** Every channel on: scramble, burst and coherent over-rotation. */
ChannelSampler
pinnedSampler()
{
    ChannelParams params;
    params.coherentPer2q = 0.02;
    params.burstPattern = 0b1011001;
    params.burstProbability = 0.03;
    return ChannelSampler(machinePreset("machineB"), params);
}

/**
 * sample() and sampleBatch() at threads 1/3/4 for one (n, m, shots)
 * case: the serial digest, then the batch digest, which every thread
 * count must reproduce.
 */
std::vector<std::uint64_t>
channelDigests(int n, int measured, int shots, std::uint64_t seed)
{
    const RoutedCircuit routed = pinnedRouted(n);
    ChannelSampler sampler = pinnedSampler();
    EXPECT_GT(sampler.scrambleProbability(routed), 0.0);
    Rng serial_rng(seed);
    std::vector<std::uint64_t> out = {histogramDigest(
        sampler.sample(routed, measured, shots, serial_rng))};
    std::uint64_t batch = 0;
    for (int threads : {1, 3, 4}) {
        Rng rng(seed);
        const std::uint64_t d = histogramDigest(
            sampler.sampleBatch(routed, measured, shots, rng, threads));
        if (threads == 1)
            batch = d;
        EXPECT_EQ(d, batch) << "threads " << threads;
    }
    out.push_back(batch);
    return out;
}

// Channel histograms pinned bit for bit.  The expected digests were
// recorded from the per-shot engine (state sweep per chunk, per-shot
// flip probabilities and relabelling, sorted count accumulators);
// every later engine must reproduce them exactly.  "Batch" in the
// names puts them on the forced-kernel-tier legs too.

TEST(ChannelSampler, PinnedBatchDigestsNarrowOutcomes)
{
    // 12 physical qubits, 10 measured; shot count not a multiple of
    // the 1024-shot chunk.
    const std::vector<std::uint64_t> expected = {
        0xd05c352ab92343a6ull, 0x62fae0dec204c4c4ull};
    const auto got = channelDigests(12, 10, 5000, 31);
    EXPECT_EQ(got, expected) << asInitializer(got);
}

TEST(ChannelSampler, PinnedBatchDigestsAtTheDenseCountCap)
{
    // 2^16 outcomes: the widest histogram counted densely.
    const std::vector<std::uint64_t> expected = {
        0x036d2b536db5273full, 0x8140b366fabb0fa9ull};
    const auto got = channelDigests(18, 16, 3001, 32);
    EXPECT_EQ(got, expected) << asInitializer(got);
}

TEST(ChannelSampler, PinnedBatchDigestsAboveTheDenseCountCap)
{
    // 2^17 outcomes: counted sparsely.
    const std::vector<std::uint64_t> expected = {
        0x949d33987fc845b3ull, 0x0b8c0a729e79f0a2ull};
    const auto got = channelDigests(18, 17, 3001, 33);
    EXPECT_EQ(got, expected) << asInitializer(got);
}

} // namespace
