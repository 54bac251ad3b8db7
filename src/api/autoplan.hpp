/**
 * @file
 * The `auto` backend and spec-level cost estimation — the api-layer
 * face of the plan::CalibrationTable cost model.
 *
 * Three consumers sit on this header:
 *   - the BackendRegistry's `auto` entry (AutoSampler): enumerate the
 *     candidate plans for the concrete routed circuit, execute the
 *     cheapest, stay bit-identical to whichever backend it selects;
 *   - ExecutionService admission control and net::ShardRouter load
 *     balancing (estimateSpecCost): a cheap, never-throwing cost
 *     estimate from workload *shape* alone, before anything is built;
 *   - the CLI (`--explain-plan`, `--calibration`): human-readable
 *     ranking dumps and calibration.json loading.
 */

#ifndef HAMMER_API_AUTOPLAN_HPP
#define HAMMER_API_AUTOPLAN_HPP

#include <memory>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "noise/sampler.hpp"
#include "plan/cost_model.hpp"

namespace hammer::api {

struct ExperimentSpec;

// ---------------------------------------------------------------------------
// calibration.json I/O
// ---------------------------------------------------------------------------

/** Serialise a table as calibration.json (hammer_calibrate output). */
std::string calibrationJson(const plan::CalibrationTable &table);

/**
 * Parse a calibration.json document.  Unknown coefficients are
 * rejected; absent ones keep their compiled-in defaults.
 *
 * @throws std::invalid_argument on malformed input.
 */
plan::CalibrationTable parseCalibration(const std::string &json);

/**
 * Read and parse @p path.
 *
 * @throws std::invalid_argument when unreadable or malformed.
 */
plan::CalibrationTable loadCalibrationFile(const std::string &path);

/**
 * Install the table named by $HAMMER_CALIBRATION (if set) as the
 * active calibration.  Runs once per process; malformed files warn on
 * stderr and fall back to the compiled-in defaults, so a bad file
 * can never take the serving stack down.
 */
void ensureEnvCalibrationLoaded();

// ---------------------------------------------------------------------------
// Spec-level estimation (admission control, shard routing)
// ---------------------------------------------------------------------------

/**
 * Approximate plan features for a spec whose workload may not be
 * built yet: family strings (bv/ghz/qaoa/mirror) map to analytic
 * qubit/gate shapes, a prebuilt workloadInstance is measured exactly.
 */
plan::PlanFeatures approximateSpecFeatures(const ExperimentSpec &spec);

/**
 * Predicted execution cost of @p spec in seconds, under the active
 * calibration.  `auto` prices as its cheapest candidate.  Never
 * throws: specs that would fail later (unknown machine, unknown
 * family) get a small fallback cost so admission control still
 * orders them deterministically.
 */
double estimateSpecCost(const ExperimentSpec &spec);

// ---------------------------------------------------------------------------
// The `auto` backend
// ---------------------------------------------------------------------------

/**
 * Cost-model-selected backend: ranks the candidate plans for each
 * circuit it is asked to execute and delegates to the cheapest,
 * passing the RNG straight through — the returned histogram is
 * bit-identical to running the selected backend directly.
 *
 * Selection is a pure function of (circuit, spec, active calibration
 * table), so a fixed table makes the choice deterministic.
 */
class AutoSampler final : public noise::NoisySampler
{
  public:
    explicit AutoSampler(const BackendSpec &spec);

    core::Distribution sample(const circuits::RoutedCircuit &routed,
                              int measured_qubits, int shots,
                              common::Rng &rng) override;

    core::Distribution
    sampleBatch(const circuits::RoutedCircuit &routed,
                int measured_qubits, int shots, common::Rng &rng,
                int threads = 0) override;

    /** Ranked candidates for @p routed (cheapest first). */
    std::vector<plan::RankedPlan>
    rank(const circuits::RoutedCircuit &routed,
         int measured_qubits) const;

    /** The plan the most recent sample()/sampleBatch() executed. */
    const plan::PlanChoice &lastChoice() const { return lastChoice_; }

  private:
    std::unique_ptr<noise::NoisySampler>
    build(const plan::PlanChoice &choice) const;

    BackendSpec spec_;
    noise::NoiseModel model_;
    plan::PlanChoice lastChoice_;
};

/**
 * Human-readable ranked-candidate dump for `--explain-plan`: builds
 * the spec's workload, extracts its features and lists every
 * candidate plan with its predicted cost breakdown, cheapest first.
 */
std::string explainPlan(const ExperimentSpec &spec);

} // namespace hammer::api

#endif // HAMMER_API_AUTOPLAN_HPP
