/**
 * @file
 * Batched trajectory replay: correctness and determinism.
 *
 * The contract: grouping noisy trajectories that share a replay
 * checkpoint into one SoA sweep (ReplayEngine::replayBatch, consumed
 * by TrajectorySampler::sampleBatch) is a pure performance
 * optimisation — every observable is bit-identical to the
 * single-state path, for every batch width (including widths that do
 * not divide any vector tier), every thread count, and every
 * supported kernel tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "circuits/bv.hpp"
#include "circuits/ghz.hpp"
#include "circuits/transpiler.hpp"
#include "noise/replay.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/kernels.hpp"

namespace {

using hammer::common::Rng;
using hammer::core::Distribution;
using namespace hammer::circuits;
using namespace hammer::noise;

/** Assert two distributions are exactly equal, entry by entry. */
void
expectIdentical(const Distribution &a, const Distribution &b)
{
    ASSERT_EQ(a.numBits(), b.numBits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &e : a.entries())
        EXPECT_EQ(e.probability, b.probability(e.outcome))
            << "outcome " << e.outcome;
}

void
expectStatesIdentical(const hammer::sim::StateVector &a,
                      const hammer::sim::StateVector &b)
{
    // Bit patterns, not ==: +0 and -0 must match too.
    ASSERT_EQ(a.dimension(), b.dimension());
    for (std::size_t i = 0; i < a.dimension(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.amplitude(i).real()),
                  std::bit_cast<std::uint64_t>(b.amplitude(i).real()))
            << "re at " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.amplitude(i).imag()),
                  std::bit_cast<std::uint64_t>(b.amplitude(i).imag()))
            << "im at " << i;
    }
}

/** Noisy enough that most trajectories replay a suffix. */
NoiseModel
loudModel()
{
    return machinePreset("machineA").scaled(4.0);
}

TEST(BatchedReplay, LaneBitIdenticalToSingleStateReplay)
{
    const auto routed = trivialRouting(bernsteinVazirani(6, 0b110101));
    const ReplayOptions options{.checkpointBudgetBytes =
                                    std::size_t{1} << 16,
                                .batchLanes = 8};
    const ReplayEngine engine(routed.circuit, loudModel(), options);
    ASSERT_GT(engine.checkpointCount(), 0u)
        << "test needs real checkpoints to share";

    // Draw trajectories until some checkpoint start accrues several
    // event lists, then batch them together.
    Rng rng(101);
    std::vector<std::vector<ErrorEvent>> drawn;
    for (int t = 0; t < 64; ++t) {
        auto events = engine.drawErrors(rng);
        if (!events.empty())
            drawn.push_back(std::move(events));
    }
    ASSERT_GE(drawn.size(), 4u);

    // Group by shared replay start; exercise every group, including
    // singletons and odd sizes below the lane budget.
    std::map<std::size_t, std::vector<const std::vector<ErrorEvent> *>>
        byStart;
    for (const auto &events : drawn)
        byStart[engine.replayStart(events)].push_back(&events);

    bool sawMultiLane = false;
    for (const auto &[start, members] : byStart) {
        for (std::size_t at = 0; at < members.size();
             at += static_cast<std::size_t>(engine.batchLanes())) {
            const std::size_t end = std::min(
                members.size(),
                at + static_cast<std::size_t>(engine.batchLanes()));
            const std::vector<const std::vector<ErrorEvent> *> group(
                members.begin() + static_cast<std::ptrdiff_t>(at),
                members.begin() + static_cast<std::ptrdiff_t>(end));
            sawMultiLane = sawMultiLane || group.size() > 1;
            const auto batch = engine.replayBatch(start, group);
            for (std::size_t g = 0; g < group.size(); ++g) {
                expectStatesIdentical(
                    batch.extractLane(static_cast<int>(g)),
                    engine.replay(*group[g]));
            }
        }
    }
    EXPECT_TRUE(sawMultiLane)
        << "loud noise must yield at least one shared-checkpoint group";
}

TEST(BatchedReplay, MixedStartLanesMatchSingleStateReplay)
{
    // Lanes in one batch need not share a checkpoint: the sweep
    // starts at the earliest member's and later lanes ride the clean
    // prefix until their own.  Each lane must still be bit-identical
    // to its single-state replay.
    const auto routed = trivialRouting(bernsteinVazirani(6, 0b011011));
    const ReplayOptions options{.checkpointBudgetBytes =
                                    std::size_t{1} << 16,
                                .batchLanes = 8};
    const ReplayEngine engine(routed.circuit, loudModel(), options);
    ASSERT_GT(engine.checkpointCount(), 1u)
        << "test needs several checkpoints to mix";

    Rng rng(303);
    std::vector<std::vector<ErrorEvent>> drawn;
    for (int t = 0; t < 96; ++t) {
        auto events = engine.drawErrors(rng);
        if (!events.empty())
            drawn.push_back(std::move(events));
    }
    // Sort by replay start so consecutive windows mix neighbouring
    // checkpoints; verify at least one window truly mixes starts.
    std::sort(drawn.begin(), drawn.end(),
              [&](const auto &a, const auto &b) {
                  return engine.replayStart(a) < engine.replayStart(b);
              });
    bool sawMixed = false;
    const auto lanes = static_cast<std::size_t>(engine.batchLanes());
    for (std::size_t at = 0; at < drawn.size(); at += lanes) {
        const std::size_t end = std::min(drawn.size(), at + lanes);
        std::vector<const std::vector<ErrorEvent> *> group;
        std::size_t start = engine.numGates();
        std::size_t deepest = 0;
        for (std::size_t g = at; g < end; ++g) {
            group.push_back(&drawn[g]);
            start = std::min(start, engine.replayStart(drawn[g]));
            deepest = std::max(deepest, engine.replayStart(drawn[g]));
        }
        sawMixed = sawMixed || (group.size() > 1 && deepest != start);
        const auto batch = engine.replayBatch(start, group);
        for (std::size_t g = 0; g < group.size(); ++g) {
            expectStatesIdentical(
                batch.extractLane(static_cast<int>(g)),
                engine.replay(*group[g]));
        }
    }
    EXPECT_TRUE(sawMixed)
        << "draws must produce at least one mixed-start window";
}

TEST(BatchedReplay, BatchWidthInvariance)
{
    // The histogram must not depend on how trajectories are packed
    // into lanes: widths 1 (batching disabled), 3 (odd, smaller than
    // every group), 8 (default) all agree bitwise.
    const auto routed = trivialRouting(bernsteinVazirani(6, 0b101101));
    Distribution want(6);
    {
        TrajectorySampler sampler(loudModel(), 60,
                                  ReplayOptions{.batchLanes = 1});
        Rng rng(11);
        want = sampler.sampleBatch(routed, 6, 4000, rng, 1);
    }
    for (const int lanes : {2, 3, 5, 8, 16}) {
        TrajectorySampler sampler(loudModel(), 60,
                                  ReplayOptions{.batchLanes = lanes});
        Rng rng(11);
        const Distribution got =
            sampler.sampleBatch(routed, 6, 4000, rng, 1);
        expectIdentical(want, got);
    }
}

TEST(BatchedReplay, ThreadCountInvarianceWithBatching)
{
    const auto routed = trivialRouting(ghz(5));
    TrajectorySampler sampler(loudModel(), 50,
                              ReplayOptions{.batchLanes = 8});
    Rng serial_rng(21);
    const Distribution serial =
        sampler.sampleBatch(routed, 5, 3000, serial_rng, 1);
    for (const int threads : {2, 3, 4, 7}) {
        Rng rng(21);
        expectIdentical(
            serial, sampler.sampleBatch(routed, 5, 3000, rng, threads));
    }
}

TEST(BatchedReplay, TierInvariance)
{
    // The whole noisy pipeline — clean pass, checkpoints, batched
    // replay, sampling — agrees bitwise across every supported ISA
    // tier.
    const auto routed = trivialRouting(bernsteinVazirani(5, 0b10011));
    auto run = [&] {
        TrajectorySampler sampler(loudModel(), 40,
                                  ReplayOptions{.batchLanes = 8});
        Rng rng(31);
        return sampler.sampleBatch(routed, 5, 2000, rng, 2);
    };

    hammer::sim::setActiveKernels(
        hammer::sim::kernelsForTier(hammer::sim::KernelTier::Scalar));
    const Distribution want = run();
    for (const auto tier : hammer::sim::supportedTiers()) {
        hammer::sim::setActiveKernels(hammer::sim::kernelsForTier(tier));
        const Distribution got = run();
        hammer::sim::setActiveKernels(nullptr);
        expectIdentical(want, got);
    }
    hammer::sim::setActiveKernels(nullptr);
}

TEST(BatchedReplay, CallerRngAdvanceIndependentOfBatchWidth)
{
    const auto routed = trivialRouting(ghz(4));
    Rng a(41), b(41);
    {
        TrajectorySampler sampler(loudModel(), 30,
                                  ReplayOptions{.batchLanes = 1});
        (void)sampler.sampleBatch(routed, 4, 600, a, 2);
    }
    {
        TrajectorySampler sampler(loudModel(), 30,
                                  ReplayOptions{.batchLanes = 8});
        (void)sampler.sampleBatch(routed, 4, 600, b, 4);
    }
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a(), b());
}

TEST(BatchedReplay, StatsRecordBatchedSweeps)
{
    const auto routed = trivialRouting(bernsteinVazirani(6, 0b111000));
    TrajectorySampler sampler(loudModel(), 80,
                              ReplayOptions{.batchLanes = 8});
    Rng rng(51);
    (void)sampler.sampleBatch(routed, 6, 4000, rng, 2);
    const ReplayStats &stats = sampler.replayStats();
    EXPECT_EQ(stats.trajectories, 80u);
    EXPECT_GT(stats.batchSweeps, 0u)
        << "loud noise must produce shared-checkpoint groups";
    EXPECT_GE(stats.batchedTrajectories, 2 * stats.batchSweeps)
        << "a sweep batches at least two trajectories";
    EXPECT_LE(stats.batchedTrajectories, stats.trajectories);
}

TEST(BatchedReplay, LanesOneNeverBatches)
{
    const auto routed = trivialRouting(ghz(5));
    TrajectorySampler sampler(loudModel(), 40,
                              ReplayOptions{.batchLanes = 1});
    Rng rng(61);
    (void)sampler.sampleBatch(routed, 5, 2000, rng, 3);
    EXPECT_EQ(sampler.replayStats().batchSweeps, 0u);
    EXPECT_EQ(sampler.replayStats().batchedTrajectories, 0u);
}

TEST(BatchedReplay, SerialSampleUnchangedByBatchOption)
{
    // sample() is the single sequential-stream path; the batchLanes
    // knob must not perturb it.
    const auto routed = trivialRouting(bernsteinVazirani(5, 0b11001));
    Rng a(71), b(71);
    TrajectorySampler one(loudModel(), 30,
                          ReplayOptions{.batchLanes = 1});
    TrajectorySampler eight(loudModel(), 30,
                            ReplayOptions{.batchLanes = 8});
    expectIdentical(one.sample(routed, 5, 1500, a),
                    eight.sample(routed, 5, 1500, b));
}

TEST(BatchedReplay, RejectsBadBatchArguments)
{
    const auto routed = trivialRouting(ghz(4));
    EXPECT_THROW(TrajectorySampler(loudModel(), 10,
                                   ReplayOptions{.batchLanes = 0}),
                 std::invalid_argument);

    const ReplayEngine engine(routed.circuit, loudModel(),
                              ReplayOptions{.batchLanes = 2});
    Rng rng(81);
    std::vector<ErrorEvent> events;
    for (int t = 0; t < 64 && events.empty(); ++t)
        events = engine.drawErrors(rng);
    ASSERT_FALSE(events.empty());
    const std::size_t start = engine.replayStart(events);
    // Empty group.
    EXPECT_THROW((void)engine.replayBatch(start, {}),
                 std::invalid_argument);
    // More members than lanes.
    EXPECT_THROW((void)engine.replayBatch(
                     start, {&events, &events, &events}),
                 std::invalid_argument);
    // Wrong start.
    EXPECT_THROW((void)engine.replayBatch(start + 1, {&events}),
                 std::invalid_argument);
}

} // namespace
