/**
 * @file
 * BackendRegistry: factory lookup, spec validation at the API
 * boundary, and noise-model resolution.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/backend.hpp"
#include "api/workload.hpp"
#include "noise/exact_sampler.hpp"

namespace {

using hammer::api::BackendRegistry;
using hammer::api::BackendSpec;
using hammer::api::resolveNoiseModel;
using hammer::api::validateBackendSpec;
using hammer::common::Rng;

TEST(BackendRegistry, GlobalKnowsTheBuiltinBackends)
{
    const auto &registry = BackendRegistry::global();
    EXPECT_TRUE(registry.contains("trajectory"));
    EXPECT_TRUE(registry.contains("channel"));
    EXPECT_TRUE(registry.contains("exact"));
    EXPECT_TRUE(registry.contains("exact-cached"));
    EXPECT_TRUE(registry.contains("auto"));
    EXPECT_FALSE(registry.contains("service"));
    EXPECT_FALSE(registry.contains("remote"));
    EXPECT_EQ(registry.names().size(), 5u);
}

TEST(BackendRegistry, DuplicateRegistrationThrows)
{
    auto registry = hammer::api::defaultBackendRegistry();
    try {
        registry.add("channel", [](const BackendSpec &) {
            return std::unique_ptr<hammer::noise::NoisySampler>();
        });
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("channel"),
                  std::string::npos)
            << "the message must name the duplicate backend";
    }
}

TEST(BackendRegistry, BuiltBackendsSample)
{
    Rng rng(1);
    const auto workload = hammer::api::makeGhzWorkload(3);
    for (const auto &name : BackendRegistry::global().names()) {
        BackendSpec spec;
        spec.trajectories = 5;
        auto sampler = BackendRegistry::global().make(name, spec);
        ASSERT_NE(sampler, nullptr) << name;
        const auto dist = sampler->sample(workload.routed, 3, 200,
                                          rng);
        EXPECT_TRUE(dist.normalized()) << name;
        EXPECT_EQ(dist.numBits(), 3) << name;
    }
}

TEST(BackendRegistry, CachedExactMatchesExactBitForBit)
{
    // The cached backend must be a pure memoisation: same RNG state,
    // same histogram as the exact backend, for every shot budget.
    hammer::noise::CachedExactSampler::clearCache();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    for (int shots : {64, 256}) {
        Rng exact_rng(7), cached_rng(7);
        const auto exact =
            BackendRegistry::global().make("exact", spec);
        const auto cached =
            BackendRegistry::global().make("exact-cached", spec);
        const auto a =
            exact->sample(workload.routed, 4, shots, exact_rng);
        const auto b =
            cached->sample(workload.routed, 4, shots, cached_rng);
        ASSERT_EQ(a.support(), b.support()) << shots << " shots";
        for (const auto &e : a.entries())
            EXPECT_DOUBLE_EQ(e.probability, b.probability(e.outcome))
                << shots << " shots";
    }
}

TEST(BackendRegistry, CachedExactReusesTheDensityMatrixEvolution)
{
    using hammer::noise::CachedExactSampler;
    CachedExactSampler::clearCache();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    Rng rng(11);
    const auto sampler =
        BackendRegistry::global().make("exact-cached", spec);

    sampler->sample(workload.routed, 4, 100, rng);
    EXPECT_EQ(CachedExactSampler::cacheSize(), 1u);
    EXPECT_EQ(CachedExactSampler::cacheHits(), 0u);

    // Further budgets resample the cached distribution.
    sampler->sample(workload.routed, 4, 500, rng);
    sampler->sampleBatch(workload.routed, 4, 2000, rng, 2);
    EXPECT_EQ(CachedExactSampler::cacheSize(), 1u);
    EXPECT_EQ(CachedExactSampler::cacheHits(), 2u);

    // A different measured width is a different key.
    sampler->sample(workload.routed, 3, 100, rng);
    EXPECT_EQ(CachedExactSampler::cacheSize(), 2u);
}

TEST(BackendRegistry, CachedExactSampleBatchDeterministicAcrossThreads)
{
    hammer::noise::CachedExactSampler::clearCache();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    const auto sampler =
        BackendRegistry::global().make("exact-cached", spec);

    std::vector<hammer::core::Distribution> results;
    for (int threads : {1, 2, 4}) {
        Rng rng(23);
        results.push_back(sampler->sampleBatch(workload.routed, 4,
                                               5000, rng, threads));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[0].support(), results[i].support());
        for (const auto &e : results[0].entries())
            EXPECT_DOUBLE_EQ(e.probability,
                             results[i].probability(e.outcome));
    }
}

TEST(BackendRegistry, UnknownBackendThrowsWithTheKnownList)
{
    // A stale spec line naming a retired backend ("service",
    // "remote") gets the same typed error as any unknown name.
    for (const std::string name : {"warpdrive", "service", "remote"}) {
        try {
            BackendRegistry::global().make(name, {});
            FAIL() << "expected std::invalid_argument for " << name;
        } catch (const std::invalid_argument &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find("'" + name + "'"), std::string::npos)
                << message;
            EXPECT_NE(message.find("channel"), std::string::npos)
                << message;
        }
    }
}

TEST(BackendRegistry, SpecValidationRejectsBadBudgets)
{
    BackendSpec spec;
    spec.shots = 0;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec.shots = -8;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.trajectories = 0;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.threads = -1;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.noiseScale = -0.5;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    EXPECT_NO_THROW(validateBackendSpec(spec));

    // make() validates before instantiating.
    spec.shots = 0;
    EXPECT_THROW(BackendRegistry::global().make("channel", spec),
                 std::invalid_argument);
}

TEST(BackendRegistry, NoiseModelResolution)
{
    BackendSpec spec;
    spec.machine = "machineA";
    spec.noiseScale = 2.0;
    const auto scaled = resolveNoiseModel(spec);
    const auto preset = hammer::noise::machinePreset("machineA");
    EXPECT_DOUBLE_EQ(scaled.p2q, preset.p2q * 2.0);

    // An explicit model wins over preset + scale.
    hammer::noise::NoiseModel custom;
    custom.p2q = 0.123;
    spec.model = custom;
    EXPECT_DOUBLE_EQ(resolveNoiseModel(spec).p2q, 0.123);

    // Unknown presets fail at the boundary.
    BackendSpec unknown;
    unknown.machine = "machineZ";
    EXPECT_THROW(resolveNoiseModel(unknown), std::invalid_argument);
}

} // namespace
