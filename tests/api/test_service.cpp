/**
 * @file
 * ExecutionService: bit-identity with Pipeline::run across worker
 * counts, request coalescing and LRU caching (counter-proven),
 * canonical spec keys, submit/wait/poll semantics, and the serving
 * protocol's spec-line parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mitigation.hpp"
#include "api/pipeline.hpp"
#include "api/service.hpp"
#include "common/checksum.hpp"
#include "common/fault_injection.hpp"
#include "graph/generators.hpp"
#include "noise/exact_sampler.hpp"

namespace {

using hammer::api::canonicalExecKey;
using hammer::api::canonicalSpecKey;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;
using hammer::api::parseSpecLine;
using hammer::api::Pipeline;
using hammer::api::Result;
using hammer::core::Distribution;

bool
identical(const Distribution &a, const Distribution &b)
{
    if (a.numBits() != b.numBits() || a.support() != b.support())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        if (a.entries()[i].outcome != b.entries()[i].outcome ||
            a.entries()[i].probability != b.entries()[i].probability)
            return false;
    }
    return true;
}

/** Same double, NaN == NaN (unscored metrics compare equal). */
bool
sameMetric(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) || a == b;
}

void
expectSameResult(const Result &expected, const Result &actual,
                 const std::string &context)
{
    EXPECT_TRUE(identical(expected.raw, actual.raw))
        << context << ": raw histogram diverged";
    EXPECT_TRUE(identical(expected.mitigated, actual.mitigated))
        << context << ": mitigated histogram diverged";
    EXPECT_EQ(expected.label, actual.label) << context;
    EXPECT_EQ(expected.workloadSpec, actual.workloadSpec) << context;
    EXPECT_EQ(expected.family, actual.family) << context;
    EXPECT_EQ(expected.mitigationName, actual.mitigationName)
        << context;
    EXPECT_EQ(expected.measuredQubits, actual.measuredQubits)
        << context;
    EXPECT_TRUE(sameMetric(expected.pstMitigated,
                           actual.pstMitigated))
        << context;
    EXPECT_TRUE(sameMetric(expected.ehdMitigated,
                           actual.ehdMitigated))
        << context;
    EXPECT_EQ(expected.hammerStats.uniqueOutcomes,
              actual.hammerStats.uniqueOutcomes)
        << context;
}

ExperimentSpec
smallBvSpec(std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.workload = "bv:6";
    spec.backend = "channel";
    spec.backendSpec.machine = "machineB";
    spec.backendSpec.shots = 2000;
    spec.backendSpec.seed = seed;
    spec.mitigation = "hammer";
    return spec;
}

/** The api suite's mixed batch (mirrors test_pipeline's). */
std::vector<ExperimentSpec>
mixedSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed : {1, 2, 3}) {
        specs.push_back(smallBvSpec(seed));
        ExperimentSpec ghz;
        ghz.workload = "ghz:5";
        ghz.backendSpec.shots = 1500;
        ghz.backendSpec.seed = seed;
        specs.push_back(ghz);
        ExperimentSpec qaoa;
        qaoa.workload = "qaoa:6:1";
        qaoa.backend = "trajectory";
        qaoa.backendSpec.trajectories = 10;
        qaoa.backendSpec.shots = 500;
        qaoa.backendSpec.seed = seed;
        qaoa.mitigation = "readout,hammer";
        specs.push_back(qaoa);
    }
    return specs;
}

TEST(ExecutionService, BitIdenticalToPipelineForEveryWorkerCount)
{
    // The acceptance criterion: every spec in the api suite, served
    // through the asynchronous front door with 1, 2 and 4 workers,
    // must reproduce Pipeline::run byte for byte.
    const auto specs = mixedSpecs();
    const Pipeline pipeline;
    std::vector<Result> expected;
    for (const auto &spec : specs)
        expected.push_back(pipeline.run(spec));

    for (int workers : {1, 2, 4}) {
        ExecutionServiceOptions options;
        options.workers = workers;
        ExecutionService service{options};
        const auto results = service.runMany(specs);
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectSameResult(expected[i], results[i],
                             "spec " + std::to_string(i) + ", " +
                                 std::to_string(workers) +
                                 " workers");
    }
}

TEST(ExecutionService, IdenticalSpecsExecuteOnce)
{
    // The dedup acceptance criterion: N identical submissions, one
    // execution, and the counters prove where the other N-1 went.
    constexpr int kJobs = 6;
    ExecutionService service;
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < kJobs; ++i)
        handles.push_back(service.submit(smallBvSpec(42)));

    const Result reference = Pipeline().run(smallBvSpec(42));
    for (const auto &handle : handles)
        expectSameResult(reference, service.wait(handle), "dedup");

    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(stats.executeRuns, 1u)
        << "the expensive execute stage must run exactly once";
    EXPECT_EQ(stats.resultCache.hits + stats.coalesced +
                  stats.executeShared,
              static_cast<std::uint64_t>(kJobs - 1))
        << "every other job must be served by a cache or a peer";
}

TEST(ExecutionService, CoalescesExecutionAcrossMitigations)
{
    // Same (workload, backend, noise, shots, seed), different
    // mitigation chains: the sample stage runs once and both jobs
    // still match their own Pipeline::run.
    auto hammer_spec = smallBvSpec(7);
    auto readout_spec = smallBvSpec(7);
    readout_spec.mitigation = "readout,hammer";
    ASSERT_EQ(*canonicalExecKey(hammer_spec),
              *canonicalExecKey(readout_spec));
    ASSERT_NE(*canonicalSpecKey(hammer_spec),
              *canonicalSpecKey(readout_spec));

    // One worker: jobs run in submission order, so the second is
    // guaranteed to find the first's execution outcome (with more
    // workers the sharing is racy-but-correct: either job may
    // compute, and the histograms agree regardless).
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    const auto a = service.submit(hammer_spec);
    const auto b = service.submit(readout_spec);
    expectSameResult(Pipeline().run(hammer_spec), service.wait(a),
                     "hammer job");
    expectSameResult(Pipeline().run(readout_spec), service.wait(b),
                     "readout,hammer job");

    const auto stats = service.stats();
    EXPECT_EQ(stats.executeRuns, 1u);
    EXPECT_EQ(stats.executeShared, 1u);
}

TEST(ExecutionService, ExecCacheHitAfterJobEndServesTheAliasedRaw)
{
    // The execution entry is published at job end and shares the
    // cached Result's raw histogram; a later job with another
    // mitigation chain replays it bit for bit.
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    auto hammer_spec = smallBvSpec(11);
    auto none_spec = smallBvSpec(11);
    none_spec.mitigation = "none";
    const Result first = service.wait(service.submit(hammer_spec));
    const Result second = service.wait(service.submit(none_spec));
    expectSameResult(Pipeline().run(none_spec), second, "replayed job");
    EXPECT_TRUE(identical(first.raw, second.raw));

    const auto stats = service.stats();
    EXPECT_EQ(stats.executeRuns, 1u);
    EXPECT_EQ(stats.executeShared, 1u);
    EXPECT_EQ(stats.cachePoisonDetected, 0u);
}

/** Poisons only the execution-cache insert of one canonical key. */
class PoisonExecInsert final : public hammer::common::FaultInjector
{
  public:
    explicit PoisonExecInsert(const std::string &execKey)
        : key_(hammer::common::fnv1a64(execKey))
    {
    }

    hammer::common::FaultAction at(hammer::common::FaultSite site,
                                   std::uint64_t key) override
    {
        hammer::common::FaultAction action;
        if (site == hammer::common::FaultSite::CacheInsert && key == key_)
            action.kind = hammer::common::FaultAction::Kind::Poison;
        return action;
    }

  private:
    std::uint64_t key_;
};

TEST(ExecutionService, PoisonedExecEntryIsDetected)
{
    auto hammer_spec = smallBvSpec(12);
    auto none_spec = smallBvSpec(12);
    none_spec.mitigation = "none";
    ExecutionServiceOptions options;
    options.workers = 1;
    options.faultInjector =
        std::make_shared<PoisonExecInsert>(*canonicalExecKey(hammer_spec));
    ExecutionService service{options};
    service.wait(service.submit(hammer_spec));
    // The poisoned entry fails verification: the job recomputes the
    // histogram instead of serving the corrupt copy.
    expectSameResult(Pipeline().run(none_spec),
                     service.wait(service.submit(none_spec)),
                     "recomputed job");

    const auto stats = service.stats();
    EXPECT_EQ(stats.cachePoisonDetected, 1u);
    EXPECT_EQ(stats.executeRuns, 2u);
    EXPECT_EQ(stats.executeShared, 0u);
}

/** A prebuilt mitigation stage that always fails. */
class FailingMitigator final : public hammer::api::Mitigator
{
  public:
    std::string name() const override { return "failing"; }

    Distribution apply(const Distribution &,
                       hammer::api::MitigationContext &) const override
    {
        throw std::runtime_error("mitigation failed");
    }
};

TEST(ExecutionService, JobFailingAfterExecutionLeavesNoInflightEntry)
{
    // The failing job executes (and registers its in-flight execution
    // entry), then throws in mitigation.  Its entry must be gone:
    // the next identical execution runs afresh instead of attaching
    // to a failed job's outcome.
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    auto failing = smallBvSpec(13);
    failing.mitigator = std::make_shared<FailingMitigator>();
    ASSERT_TRUE(canonicalExecKey(failing).has_value());
    const auto handle = service.submit(failing);
    EXPECT_THROW(service.wait(handle), std::runtime_error);

    const auto spec = smallBvSpec(13);
    expectSameResult(Pipeline().run(spec),
                     service.wait(service.submit(spec)), "retried spec");
    const auto stats = service.stats();
    EXPECT_EQ(stats.executeRuns, 2u);
    EXPECT_EQ(stats.executeShared, 0u);
}

TEST(ExecutionService, BoundedLruEvicts)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    options.cacheCapacity = 2;
    ExecutionService service{options};

    // Three distinct specs fill and overflow the 2-entry cache...
    service.wait(service.submit(smallBvSpec(1)));
    service.wait(service.submit(smallBvSpec(2)));
    service.wait(service.submit(smallBvSpec(3)));
    EXPECT_EQ(service.stats().resultCache.entries, 2u);

    // ...evicting the least recently used spec, which re-executes.
    service.wait(service.submit(smallBvSpec(1)));
    const auto stats = service.stats();
    EXPECT_EQ(stats.executeRuns, 4u);
    EXPECT_EQ(stats.resultCache.hits, 0u);

    // A cached spec is served without executing.
    const auto cached = service.submit(smallBvSpec(1));
    EXPECT_TRUE(cached.servedFromCache());
    EXPECT_EQ(service.stats().resultCache.hits, 1u);
    EXPECT_EQ(service.stats().executeRuns, 4u);
}

TEST(ExecutionService, NonCanonicalSpecsBypassTheCaches)
{
    // A prebuilt workload instance cannot be canonically keyed:
    // identical submissions run twice, but still agree.
    ExperimentSpec spec;
    spec.workloadInstance = hammer::api::makeQaoaWorkload(
        hammer::graph::ring(6), 1, false, 0, 0, "ring",
        /*compute_optimum=*/false);
    spec.backendSpec.shots = 500;
    EXPECT_FALSE(canonicalExecKey(spec).has_value());
    EXPECT_FALSE(canonicalSpecKey(spec).has_value());

    ExecutionService service;
    const auto a = service.wait(service.submit(spec));
    const auto b = service.wait(service.submit(spec));
    EXPECT_TRUE(identical(a.mitigated, b.mitigated));
    EXPECT_EQ(service.stats().executeRuns, 2u);

    // Explicit models and opaque mitigators are non-canonical too.
    auto custom_model = smallBvSpec(1);
    custom_model.backendSpec.model = hammer::noise::NoiseModel{};
    EXPECT_FALSE(canonicalExecKey(custom_model).has_value());
    auto custom_mitigator = smallBvSpec(1);
    custom_mitigator.mitigator =
        std::make_shared<hammer::api::HammerMitigator>();
    EXPECT_TRUE(canonicalExecKey(custom_mitigator).has_value());
    EXPECT_FALSE(canonicalSpecKey(custom_mitigator).has_value());
}

TEST(ExecutionService, CanonicalKeysSeparateEveryAxis)
{
    const auto base = *canonicalSpecKey(smallBvSpec(1));
    auto other = smallBvSpec(1);
    other.backendSpec.seed = 2;
    EXPECT_NE(base, *canonicalSpecKey(other));
    other = smallBvSpec(1);
    other.backendSpec.shots = 4000;
    EXPECT_NE(base, *canonicalSpecKey(other));
    other = smallBvSpec(1);
    other.workload = "bv:7";
    EXPECT_NE(base, *canonicalSpecKey(other));
    other = smallBvSpec(1);
    other.backend = "trajectory";
    EXPECT_NE(base, *canonicalSpecKey(other));
    other = smallBvSpec(1);
    other.mitigation = "none";
    EXPECT_NE(base, *canonicalSpecKey(other));

    // Threads and labels do not change results, so they must not
    // change the key either.
    other = smallBvSpec(1);
    other.backendSpec.threads = 4;
    other.label = "renamed";
    EXPECT_EQ(base, *canonicalSpecKey(other));
}

TEST(ExecutionService, WaitDerivesPerHandleLabels)
{
    // Coalesced and cached jobs share one Result object; every
    // handle still sees its own label.
    auto first = smallBvSpec(9);
    first.label = "first";
    auto second = smallBvSpec(9);
    second.label = "second";
    auto unlabeled = smallBvSpec(9);

    ExecutionService service;
    const auto a = service.submit(first);
    const auto b = service.submit(second);
    const auto c = service.submit(unlabeled);
    EXPECT_EQ(service.wait(a).label, "first");
    EXPECT_EQ(service.wait(b).label, "second");
    EXPECT_EQ(service.wait(c).label, "bv:6");
    EXPECT_EQ(service.stats().executeRuns, 1u);
}

TEST(ExecutionService, PollAndHandleSemantics)
{
    ExecutionService service;
    const auto handle = service.submit(smallBvSpec(3));
    service.wait(handle); // after wait, poll is definitely true
    EXPECT_TRUE(service.poll(handle));
    EXPECT_GE(handle.id(), 1u);

    ExecutionService::JobHandle invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(service.wait(invalid), std::invalid_argument);
    EXPECT_THROW(service.poll(invalid), std::invalid_argument);
}

TEST(ExecutionService, ValidatesAtSubmitAndSurfacesJobErrorsAtWait)
{
    ExecutionService service;

    // Boundary violations fail fast, from submit() itself.
    auto bad_shots = smallBvSpec(1);
    bad_shots.backendSpec.shots = 0;
    EXPECT_THROW(service.submit(bad_shots), std::invalid_argument);
    const ExperimentSpec no_workload;
    EXPECT_THROW(service.submit(no_workload), std::invalid_argument);

    // Registry errors surface when the job runs, i.e. at wait().
    auto bad_backend = smallBvSpec(1);
    bad_backend.backend = "warpdrive";
    const auto handle = service.submit(bad_backend);
    EXPECT_THROW(service.wait(handle), std::invalid_argument);
}

TEST(ExecutionService, RunManyMatchesPipelineRunMany)
{
    const auto specs = mixedSpecs();
    const auto via_pipeline = Pipeline().runMany(specs, 2);
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service{options};
    const auto via_service = service.runMany(specs);
    ASSERT_EQ(via_pipeline.size(), via_service.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameResult(via_pipeline[i], via_service[i],
                         "spec " + std::to_string(i));
}

TEST(ExecutionService, ExposesTheExactCacheUniformly)
{
    // Different shot budgets are different service cache keys, but
    // the 4^n density-matrix evolution must still run only once —
    // the service routes that level of caching through
    // CachedExactSampler's memo rather than duplicating it.
    hammer::noise::CachedExactSampler::clearCache();
    ExecutionService service;
    ExperimentSpec spec;
    spec.workload = "ghz:4";
    spec.backend = "exact-cached";
    spec.backendSpec.shots = 500;
    service.wait(service.submit(spec));
    spec.backendSpec.shots = 900;
    service.wait(service.submit(spec));

    const auto stats = service.stats();
    EXPECT_EQ(stats.executeRuns, 2u) << "distinct shot budgets";
    EXPECT_EQ(stats.exactCache.entries, 1u)
        << "one density-matrix evolution";
    EXPECT_GE(stats.exactCache.hits, 1u);
    EXPECT_EQ(stats.exactCache.misses, 1u);
}

// ---------------------------------------------------------------------------
// Serving protocol (spec lines)
// ---------------------------------------------------------------------------

TEST(SpecLine, ParsesJsonObjects)
{
    const auto parsed = parseSpecLine(
        R"({"workload": "bv:8", "backend": "trajectory", )"
        R"("machine": "machineC", "noise_scale": 1.5, )"
        R"("shots": 1024, "trajectories": 50, "seed": 9, )"
        R"("mitigation": "readout,hammer", "label": "x", )"
        R"("priority": 3})");
    EXPECT_EQ(parsed.spec.workload, "bv:8");
    EXPECT_EQ(parsed.spec.backend, "trajectory");
    EXPECT_EQ(parsed.spec.backendSpec.machine, "machineC");
    EXPECT_DOUBLE_EQ(parsed.spec.backendSpec.noiseScale, 1.5);
    EXPECT_EQ(parsed.spec.backendSpec.shots, 1024);
    EXPECT_EQ(parsed.spec.backendSpec.trajectories, 50);
    EXPECT_EQ(parsed.spec.backendSpec.seed, 9u);
    EXPECT_EQ(parsed.spec.mitigation, "readout,hammer");
    EXPECT_EQ(parsed.spec.label, "x");
    EXPECT_EQ(parsed.priority, 3);
}

TEST(SpecLine, ParsesPositionalCsv)
{
    const auto full = parseSpecLine(
        "bv:5, channel, 512, 3, hammer, machineA, my-label");
    EXPECT_EQ(full.spec.workload, "bv:5");
    EXPECT_EQ(full.spec.backend, "channel");
    EXPECT_EQ(full.spec.backendSpec.shots, 512);
    EXPECT_EQ(full.spec.backendSpec.seed, 3u);
    EXPECT_EQ(full.spec.mitigation, "hammer");
    EXPECT_EQ(full.spec.backendSpec.machine, "machineA");
    EXPECT_EQ(full.spec.label, "my-label");

    // Defaults fill the omitted tail.
    const auto minimal = parseSpecLine("ghz:4");
    EXPECT_EQ(minimal.spec.workload, "ghz:4");
    EXPECT_EQ(minimal.spec.backend, "channel");
    EXPECT_EQ(minimal.spec.backendSpec.shots, 8192);

    // CRLF traffic files leave '\r' on the last field via getline.
    const auto crlf = parseSpecLine("bv:5,channel,512,3,hammer\r");
    EXPECT_EQ(crlf.spec.mitigation, "hammer");

    // Multi-stage chains use '+' in the CSV form (',' separates
    // fields); the JSON form keeps the native comma syntax.
    const auto chained =
        parseSpecLine("bv:5,channel,512,3,readout+hammer,machineB");
    EXPECT_EQ(chained.spec.mitigation, "readout,hammer");
    EXPECT_EQ(chained.spec.backendSpec.machine, "machineB");
}

TEST(SpecLine, RejectsMalformedLines)
{
    EXPECT_THROW(parseSpecLine(""), std::invalid_argument);
    EXPECT_THROW(parseSpecLine("   "), std::invalid_argument);
    EXPECT_THROW(parseSpecLine("{\"shots\": 100}"),
                 std::invalid_argument)
        << "workload is required";
    EXPECT_THROW(parseSpecLine("{\"workload\": \"bv:5\", "
                               "\"warp\": 9}"),
                 std::invalid_argument)
        << "unknown keys must be named, not ignored";
    EXPECT_THROW(parseSpecLine("{\"workload\": \"bv:5\", "
                               "\"shots\": 1.5}"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpecLine("{\"workload\": \"bv:5\", "
                               "\"shots\": 5000000000}"),
                 std::invalid_argument)
        << "out-of-int-range budgets must be rejected, not cast";
    EXPECT_THROW(parseSpecLine("bv:5,channel,notanumber"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpecLine("a,b,1,1,c,d,e,f"),
                 std::invalid_argument)
        << "too many CSV fields";
    EXPECT_THROW(parseSpecLine("{\"workload\": \"bv:5\""),
                 std::invalid_argument)
        << "truncated JSON";
    EXPECT_THROW(parseSpecLine("{\"workload\": \"bv:5\", "
                               "\"shots\": 100, \"shots\": 200}"),
                 std::invalid_argument)
        << "duplicate keys must not silently last-one-win";

    // Type errors name the offending key.
    try {
        parseSpecLine("{\"workload\": \"bv:5\", "
                      "\"shots\": \"many\"}");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("shots"),
                  std::string::npos)
            << error.what();
    }
}

} // namespace
