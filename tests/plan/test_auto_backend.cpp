/**
 * @file
 * The `auto` backend: registry integration, bit-identity with the
 * selected backend, calibration-forced plan choices, calibration
 * JSON round-trips and the --explain-plan dump.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "common/rng.hpp"
#include "plan/cost_model.hpp"

namespace {

using hammer::api::AutoSampler;
using hammer::api::BackendRegistry;
using hammer::api::BackendSpec;
using hammer::api::calibrationJson;
using hammer::api::estimateSpecCost;
using hammer::api::explainPlan;
using hammer::api::ExperimentSpec;
using hammer::api::parseCalibration;
using hammer::api::Workload;
using hammer::api::WorkloadRegistry;
using hammer::core::Distribution;
using hammer::plan::activeCalibration;
using hammer::plan::CalibrationTable;
using hammer::plan::defaultCalibrationTable;
using hammer::plan::setActiveCalibration;

/** Restore the process-wide calibration on scope exit. */
class ScopedCalibration
{
  public:
    ScopedCalibration() : saved_(activeCalibration()) {}
    ~ScopedCalibration() { setActiveCalibration(saved_); }

  private:
    CalibrationTable saved_;
};

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

BackendSpec
smallSpec()
{
    BackendSpec spec;
    spec.shots = 1500;
    spec.trajectories = 30;
    spec.seed = 11;
    return spec;
}

} // namespace

TEST(AutoBackend, RegisteredAlongsideTheHandPickedBackends)
{
    const BackendRegistry &registry = BackendRegistry::global();
    EXPECT_TRUE(registry.contains("auto"));
    EXPECT_EQ(registry.names().size(), 5u);
}

TEST(AutoBackend, BitIdenticalToTheSelectedBackend)
{
    const ScopedCalibration guard;
    setActiveCalibration(defaultCalibrationTable());

    for (const char *workloadSpec : {"bv:7", "qaoa:ring:6:1"}) {
        hammer::common::Rng wrng(3);
        const Workload workload =
            WorkloadRegistry::global().make(workloadSpec, wrng);
        const BackendSpec spec = smallSpec();

        AutoSampler autoSampler(spec);
        hammer::common::Rng arng(spec.seed);
        const Distribution autoDist = autoSampler.sampleBatch(
            workload.routed, workload.measuredQubits, spec.shots,
            arng, 1);
        const std::string selected =
            autoSampler.lastChoice().backend;

        auto direct = BackendRegistry::global().make(selected, spec);
        hammer::common::Rng drng(spec.seed);
        const Distribution directDist = direct->sampleBatch(
            workload.routed, workload.measuredQubits, spec.shots,
            drng, 1);
        EXPECT_TRUE(identical(autoDist, directDist))
            << workloadSpec << " via " << selected;
    }
}

TEST(AutoBackend, CalibrationForcesThePlanChoice)
{
    const ScopedCalibration guard;
    hammer::common::Rng wrng(3);
    // 13 physical qubits: the exact backends are not candidates, so
    // the choice is channel vs trajectory and the table decides.
    const Workload workload =
        WorkloadRegistry::global().make("bv:12", wrng);
    const BackendSpec spec = smallSpec();

    CalibrationTable channelHostile = defaultCalibrationTable();
    channelHostile.channelFlipNs = 1e9;
    setActiveCalibration(channelHostile);
    AutoSampler a(spec);
    hammer::common::Rng rng1(spec.seed);
    (void)a.sample(workload.routed, workload.measuredQubits, 100,
                   rng1);
    EXPECT_EQ(a.lastChoice().backend, "trajectory");

    CalibrationTable trajectoryHostile = defaultCalibrationTable();
    trajectoryHostile.checkpointRowNs = 1e9;
    trajectoryHostile.injectionWeight = 1e9;
    setActiveCalibration(trajectoryHostile);
    AutoSampler b(spec);
    hammer::common::Rng rng2(spec.seed);
    (void)b.sample(workload.routed, workload.measuredQubits, 100,
                   rng2);
    EXPECT_EQ(b.lastChoice().backend, "channel");
}

TEST(AutoBackend, RankingIsDeterministic)
{
    const ScopedCalibration guard;
    setActiveCalibration(defaultCalibrationTable());
    hammer::common::Rng wrng(3);
    const Workload workload =
        WorkloadRegistry::global().make("bv:6", wrng);
    const AutoSampler sampler(smallSpec());
    const auto a =
        sampler.rank(workload.routed, workload.measuredQubits);
    const auto b =
        sampler.rank(workload.routed, workload.measuredQubits);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].choice.backend, b[i].choice.backend);
        EXPECT_EQ(a[i].cost.seconds, b[i].cost.seconds);
    }
}

TEST(Calibration, JsonRoundTripsEveryCoefficient)
{
    CalibrationTable table = defaultCalibrationTable();
    table.dense1qRowNs = 2.5;
    table.dispatchOverheadRows = 640.0;
    table.injectionWeight = 1.25;
    table.shotNs = 42.0;
    table.version = 7;

    const CalibrationTable parsed =
        parseCalibration(calibrationJson(table));
    EXPECT_EQ(parsed.dense1qRowNs, table.dense1qRowNs);
    EXPECT_EQ(parsed.diagRowNs, table.diagRowNs);
    EXPECT_EQ(parsed.permRowNs, table.permRowNs);
    EXPECT_EQ(parsed.twoqRowNs, table.twoqRowNs);
    EXPECT_EQ(parsed.dispatchOverheadRows,
              table.dispatchOverheadRows);
    EXPECT_EQ(parsed.injectionWeight, table.injectionWeight);
    EXPECT_EQ(parsed.checkpointRowNs, table.checkpointRowNs);
    EXPECT_EQ(parsed.shotNs, table.shotNs);
    EXPECT_EQ(parsed.channelFlipNs, table.channelFlipNs);
    EXPECT_EQ(parsed.densityRowNs, table.densityRowNs);
    EXPECT_EQ(parsed.cacheHitNs, table.cacheHitNs);
    EXPECT_EQ(parsed.planOverheadNs, table.planOverheadNs);
    EXPECT_EQ(parsed.version, table.version);
}

TEST(Calibration, RejectsUnknownCoefficientsAndBadValues)
{
    EXPECT_THROW(parseCalibration("{\"type\":\"hammer_calibration\","
                                  "\"version\":1,\"coefficients\":"
                                  "{\"bogus_ns\":1.0}}"),
                 std::invalid_argument);
    EXPECT_THROW(parseCalibration("{\"type\":\"hammer_calibration\","
                                  "\"version\":1,\"coefficients\":"
                                  "{\"shot_ns\":-1.0}}"),
                 std::invalid_argument);
    EXPECT_THROW(parseCalibration("not json"),
                 std::invalid_argument);
}

TEST(Admission, SpecCostEstimateIsPositiveAndMonotoneInShots)
{
    const ScopedCalibration guard;
    setActiveCalibration(defaultCalibrationTable());
    ExperimentSpec spec;
    spec.workload = "bv:8";
    spec.backend = "channel";
    spec.backendSpec.shots = 1000;
    const double small = estimateSpecCost(spec);
    EXPECT_GT(small, 0.0);

    spec.backendSpec.shots = 64000;
    EXPECT_GE(estimateSpecCost(spec), small);

    // Never throws, whatever the workload string looks like.
    ExperimentSpec garbage;
    garbage.workload = "???";
    EXPECT_GT(estimateSpecCost(garbage), 0.0);
}

TEST(ExplainPlan, ListsRankedCandidates)
{
    const ScopedCalibration guard;
    setActiveCalibration(defaultCalibrationTable());
    ExperimentSpec spec;
    spec.workload = "bv:6";
    spec.backend = "auto";
    spec.backendSpec = smallSpec();
    const std::string text = explainPlan(spec);
    EXPECT_NE(text.find("bv:6"), std::string::npos);
    EXPECT_NE(text.find("channel"), std::string::npos);
    EXPECT_NE(text.find("trajectory"), std::string::npos);
    EXPECT_NE(text.find("->"), std::string::npos);
}
