#include "api/autoplan.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/workload.hpp"
#include "common/logging.hpp"
#include "noise/exact_sampler.hpp"
#include "noise/trajectory_sampler.hpp"

namespace hammer::api {

using common::require;

namespace {

/** The table coefficient a cost group scales (name == JSON key). */
double &
coefficient(plan::CalibrationTable &table, plan::CostGroup group)
{
    switch (group) {
    case plan::CostGroup::Dense1q: return table.dense1qRowNs;
    case plan::CostGroup::Diag: return table.diagRowNs;
    case plan::CostGroup::Perm: return table.permRowNs;
    case plan::CostGroup::Twoq: return table.twoqRowNs;
    case plan::CostGroup::Dispatch: return table.dispatchOverheadRows;
    case plan::CostGroup::Injection: return table.injectionWeight;
    case plan::CostGroup::Checkpoint: return table.checkpointRowNs;
    case plan::CostGroup::Shots: return table.shotNs;
    case plan::CostGroup::Flips: return table.channelFlipNs;
    case plan::CostGroup::Density: return table.densityRowNs;
    case plan::CostGroup::CacheHit: return table.cacheHitNs;
    case plan::CostGroup::Overhead: return table.planOverheadNs;
    }
    throw std::invalid_argument("unknown cost group");
}

bool
allDigits(const std::string &text)
{
    if (text.empty())
        return false;
    for (const char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/**
 * Analytic (qubits, 1q gates, 2q gates) shape of a registry workload
 * spec, without building it.  Rough by design: admission control
 * needs relative ordering across a mixed queue, not exact counts.
 */
struct WorkloadShape
{
    int qubits = 8;
    std::uint64_t gates1q = 32;
    std::uint64_t gates2q = 16;
};

WorkloadShape
approximateShape(const std::string &workload)
{
    WorkloadShape shape;
    const std::vector<std::string> tokens = splitSpec(workload);
    if (tokens.empty())
        return shape;
    const std::string &family = tokens[0];
    const auto num = [&](std::size_t i, int fallback) {
        return i < tokens.size() && allDigits(tokens[i])
            ? parsePositiveInt(tokens[i], "workload field")
            : fallback;
    };
    if (family == "bv") {
        const int n = num(1, 8);
        shape.qubits = n + 1; // n data qubits + the ancilla.
        shape.gates1q = static_cast<std::uint64_t>(2 * n + 3);
        shape.gates2q = static_cast<std::uint64_t>(n);
    } else if (family == "ghz") {
        const int n = num(1, 8);
        shape.qubits = n;
        shape.gates1q = 1;
        // Chain CXs roughly double under routing.
        shape.gates2q = static_cast<std::uint64_t>(2 * (n - 1));
    } else if (family == "qaoa") {
        // qaoa:[<family>:]<n>:<p>
        const bool named =
            tokens.size() >= 2 && !allDigits(tokens[1]);
        const int n = num(named ? 2 : 1, 8);
        const int p = num(named ? 3 : 2, 1);
        shape.qubits = n;
        shape.gates1q = static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(p + 2);
        // ~3n/2 edges per layer, ~2x routing overhead, 3 CX per ZZ.
        shape.gates2q = static_cast<std::uint64_t>(3 * n) *
            static_cast<std::uint64_t>(p);
    } else if (family == "mirror") {
        const int n = num(1, 8);
        const int depth = num(2, n);
        shape.qubits = n;
        shape.gates1q = static_cast<std::uint64_t>(2 * n) *
            static_cast<std::uint64_t>(depth);
        shape.gates2q = static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(depth);
    }
    return shape;
}

/** True when the exact distribution for this key is already memoised. */
bool
probeCacheWarm(const noise::NoiseModel &model,
               const circuits::RoutedCircuit &routed,
               int measured_qubits)
{
    if (routed.circuit.numQubits() > 10)
        return false;
    return noise::CachedExactSampler(model).isCached(routed,
                                                     measured_qubits);
}

std::once_flag envCalibrationOnce;

} // namespace

std::string
calibrationJson(const plan::CalibrationTable &table)
{
    plan::CalibrationTable copy = table;
    JsonWriter out;
    out.beginObject();
    out.key("type").value("hammer_calibration");
    out.key("version").value(table.version);
    out.key("coefficients").beginObject();
    for (std::size_t g = 0; g < plan::kCostGroups; ++g) {
        const auto group = static_cast<plan::CostGroup>(g);
        out.key(plan::costGroupName(group))
            .value(coefficient(copy, group));
    }
    out.endObject();
    out.endObject();
    return out.str();
}

plan::CalibrationTable
parseCalibration(const std::string &json)
{
    const JsonValue root = parseJson(json);
    require(root.isObject(), "calibration: root must be an object");
    if (const JsonValue *type = root.find("type"))
        require(type->asString() == "hammer_calibration",
                "calibration: unexpected type '" + type->asString() +
                    "'");

    plan::CalibrationTable table = plan::defaultCalibrationTable();
    if (const JsonValue *version = root.find("version"))
        table.version = static_cast<int>(version->asNumber());

    const JsonValue &coeffs = root.at("coefficients");
    require(coeffs.isObject(),
            "calibration: coefficients must be an object");
    for (const auto &[name, value] : coeffs.members()) {
        bool known = false;
        for (std::size_t g = 0; g < plan::kCostGroups; ++g) {
            const auto group = static_cast<plan::CostGroup>(g);
            if (name == plan::costGroupName(group)) {
                const double v = value.asNumber();
                require(v > 0.0,
                        "calibration: coefficient '" + name +
                            "' must be > 0");
                coefficient(table, group) = v;
                known = true;
                break;
            }
        }
        require(known,
                "calibration: unknown coefficient '" + name + "'");
    }
    return table;
}

plan::CalibrationTable
loadCalibrationFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    require(in.good(),
            "calibration: cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parseCalibration(text.str());
}

void
ensureEnvCalibrationLoaded()
{
    std::call_once(envCalibrationOnce, [] {
        const char *path = std::getenv("HAMMER_CALIBRATION");
        if (path == nullptr || *path == '\0')
            return;
        try {
            plan::setActiveCalibration(loadCalibrationFile(path));
        } catch (const std::exception &e) {
            // A bad table must never take the process down: warn and
            // keep the compiled-in defaults.
            std::fprintf(stderr,
                         "hammer: ignoring HAMMER_CALIBRATION=%s: "
                         "%s\n",
                         path, e.what());
        }
    });
}

plan::PlanFeatures
approximateSpecFeatures(const ExperimentSpec &spec)
{
    noise::NoiseModel model;
    try {
        model = resolveNoiseModel(spec.backendSpec);
    } catch (const std::exception &) {
        // Unknown preset: the spec will be rejected at execution;
        // price it under default rates so ordering stays total.
    }
    if (spec.workloadInstance) {
        return plan::extractFeatures(
            spec.workloadInstance->routed.circuit, model,
            spec.backendSpec.shots, spec.backendSpec.trajectories);
    }
    const WorkloadShape shape = approximateShape(spec.workload);
    return plan::approximateFeatures(
        shape.qubits, shape.gates1q, shape.gates2q, model,
        spec.backendSpec.shots, spec.backendSpec.trajectories);
}

double
estimateSpecCost(const ExperimentSpec &spec)
{
    ensureEnvCalibrationLoaded();
    try {
        const plan::PlanFeatures features =
            approximateSpecFeatures(spec);
        const plan::CalibrationTable &table =
            plan::activeCalibration();
        if (spec.backend == "auto") {
            const auto ranked = plan::rankPlans(features, table);
            return ranked.front().cost.seconds;
        }
        plan::PlanChoice choice;
        choice.backend = spec.backend;
        return plan::estimateCost(features, choice, table).seconds;
    } catch (const std::exception &) {
        return 1e-3; // Deterministic fallback for unpriceable specs.
    }
}

// ---------------------------------------------------------------------------
// AutoSampler
// ---------------------------------------------------------------------------

AutoSampler::AutoSampler(const BackendSpec &spec)
    : spec_(spec), model_(resolveNoiseModel(spec))
{
    ensureEnvCalibrationLoaded();
}

std::vector<plan::RankedPlan>
AutoSampler::rank(const circuits::RoutedCircuit &routed,
                  int measured_qubits) const
{
    plan::PlanFeatures features = plan::extractFeatures(
        routed.circuit, model_, spec_.shots, spec_.trajectories);
    features.cacheWarm =
        probeCacheWarm(model_, routed, measured_qubits);
    return plan::rankPlans(features, plan::activeCalibration());
}

std::unique_ptr<noise::NoisySampler>
AutoSampler::build(const plan::PlanChoice &choice) const
{
    if (choice.backend == "trajectory") {
        return std::make_unique<noise::TrajectorySampler>(
            model_, spec_.trajectories,
            plan::replayOptionsFor(choice,
                                   plan::activeCalibration()));
    }
    if (choice.backend == "exact")
        return std::make_unique<noise::ExactSampler>(model_);
    if (choice.backend == "exact-cached")
        return std::make_unique<noise::CachedExactSampler>(model_);
    require(choice.backend == "channel",
            "AutoSampler: unexpected plan backend '" +
                choice.backend + "'");
    return std::make_unique<noise::ChannelSampler>(
        model_,
        spec_.channelParams.value_or(noise::ChannelParams{}));
}

core::Distribution
AutoSampler::sample(const circuits::RoutedCircuit &routed,
                    int measured_qubits, int shots, common::Rng &rng)
{
    lastChoice_ = rank(routed, measured_qubits).front().choice;
    // The RNG passes straight through, so the histogram is
    // bit-identical to running the selected backend directly.
    return build(lastChoice_)
        ->sample(routed, measured_qubits, shots, rng);
}

core::Distribution
AutoSampler::sampleBatch(const circuits::RoutedCircuit &routed,
                         int measured_qubits, int shots,
                         common::Rng &rng, int threads)
{
    lastChoice_ = rank(routed, measured_qubits).front().choice;
    return build(lastChoice_)
        ->sampleBatch(routed, measured_qubits, shots, rng, threads);
}

std::string
explainPlan(const ExperimentSpec &spec)
{
    ensureEnvCalibrationLoaded();
    common::Rng rng(spec.backendSpec.seed);
    const Workload workload = spec.workloadInstance
        ? *spec.workloadInstance
        : WorkloadRegistry::global().make(spec.workload, rng);
    const noise::NoiseModel model =
        resolveNoiseModel(spec.backendSpec);
    plan::PlanFeatures features = plan::extractFeatures(
        workload.routed.circuit, model, spec.backendSpec.shots,
        spec.backendSpec.trajectories);
    features.cacheWarm = probeCacheWarm(
        model, workload.routed, workload.measuredQubits);
    const auto ranked =
        plan::rankPlans(features, plan::activeCalibration());

    std::ostringstream out;
    out << "plan candidates for " << workload.spec << " on "
        << spec.backendSpec.machine << " (qubits=" << features.qubits
        << ", ops=" << features.dense1q + features.diag +
            features.perm + features.twoq
        << ", source gates=" << features.sourceGates
        << ", shots=" << features.shots
        << ", trajectories=" << features.trajectories << std::fixed
        << std::setprecision(4)
        << ", zero-error fraction=" << features.zeroErrorFraction
        << (features.cacheWarm ? ", exact cache warm" : "")
        << ")\n";
    out << std::setprecision(3);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const plan::RankedPlan &r = ranked[i];
        out << (i == 0 ? "  -> " : "     ") << std::left
            << std::setw(13) << r.choice.backend << std::right
            << " ckpt=" << std::setw(4)
            << (r.choice.checkpointBudgetBytes >> 20) << "MiB"
            << " lanes=" << r.choice.batchLanes
            << " predicted=" << r.cost.seconds * 1e3 << "ms";
        // The two dominant cost groups, for drift debugging.
        std::size_t top = 0, second = 0;
        for (std::size_t g = 1; g < plan::kCostGroups; ++g) {
            if (r.cost.groups[g] > r.cost.groups[top]) {
                second = top;
                top = g;
            } else if (top == second ||
                       r.cost.groups[g] > r.cost.groups[second]) {
                second = g;
            }
        }
        out << " ("
            << plan::costGroupName(static_cast<plan::CostGroup>(top))
            << "=" << r.cost.groups[top] * 1e3 << "ms, "
            << plan::costGroupName(
                   static_cast<plan::CostGroup>(second))
            << "=" << r.cost.groups[second] * 1e3 << "ms)\n";
    }
    return out.str();
}

} // namespace hammer::api
