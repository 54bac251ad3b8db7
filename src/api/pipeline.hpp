/**
 * @file
 * The experiment pipeline: the paper's fixed methodology — build
 * circuit -> route -> execute noisily -> post-process -> score — as
 * one composable API.
 *
 * An ExperimentSpec names a workload (registry spec or prebuilt
 * instance), a backend (registry name + BackendSpec) and a mitigation
 * chain; Pipeline::run executes the sequence and returns a Result
 * with the raw and mitigated histograms, per-stage wall-clock,
 * HAMMER observability counters and fidelity metrics.  runMany fans
 * a batch of specs across common::ThreadPool, preserving the
 * engine's bit-identical-for-any-thread-count guarantee.
 */

#ifndef HAMMER_API_PIPELINE_HPP
#define HAMMER_API_PIPELINE_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "api/mitigation.hpp"
#include "api/workload.hpp"
#include "common/rng.hpp"
#include "core/distribution.hpp"
#include "core/hammer.hpp"

namespace hammer::api {

/**
 * One experiment: workload x backend x mitigation.
 */
struct ExperimentSpec
{
    /** Free-form label echoed into the Result ("" = workload spec). */
    std::string label;

    /** Workload registry spec, e.g. "bv:8" (see WorkloadRegistry). */
    std::string workload;

    /**
     * Prebuilt workload; wins over the registry spec.  The entry
     * point for circuits the registry cannot describe (explicit QAOA
     * angles, custom graphs, hand-built circuits).
     */
    std::optional<Workload> workloadInstance;

    /** Backend registry name: "trajectory" | "channel" | "exact". */
    std::string backend = "channel";

    /** Backend configuration (machine, shots, threads, seed, ...). */
    BackendSpec backendSpec;

    /**
     * Mitigation chain spec, e.g. "hammer" or "readout,hammer"
     * ("" / "none" = raw output only).
     */
    std::string mitigation = "hammer";

    /** Prebuilt mitigator; wins over the chain spec. */
    std::shared_ptr<const Mitigator> mitigator;
};

/** Wall-clock of one pipeline stage. */
struct StageTiming
{
    /**
     * "workload" | "backend" | "sample" | "mitigate" | "score",
     * plus one "mitigate:<stage>" detail row per mitigation-chain
     * stage (sub-rows are excluded from totalSeconds()).
     */
    std::string stage;
    double seconds = 0.0;
};

/**
 * Everything one pipeline run produced.
 *
 * Metric fields are NaN when the workload has no known correct
 * outcomes (use std::isnan, or read the JSON where they are null).
 */
struct Result
{
    std::string label;          ///< Echo of the spec label.
    std::string workloadSpec;   ///< Registry spec ("" = prebuilt).
    std::string family;         ///< Workload family tag.
    std::string backendName;    ///< Backend registry name.
    std::string machine;        ///< Noise preset used.
    std::string mitigationName; ///< Chain name ("none" = identity).
    int measuredQubits = 0;
    int shots = 0;
    std::uint64_t seed = 0;

    /** The workload that ran (absent for histogram-only flows). */
    std::optional<Workload> workload;

    core::Distribution raw{1};       ///< Measured histogram.
    core::Distribution mitigated{1}; ///< After the mitigation chain.

    /** HAMMER counters (zero when no hammer stage ran). */
    core::HammerStats hammerStats;

    /**
     * True when this result is a degraded substitute: a cached
     * lower-trajectory-budget run served under
     * ExecutionServiceOptions::degradedServing.  A degraded result is
     * always explicitly flagged (writeJson emits "degraded": true only
     * in that case) and never cached under the requested spec's key.
     */
    bool degraded = false;

    /** Per-stage wall-clock, in pipeline order. */
    std::vector<StageTiming> timings;

    double pstRaw = 0.0;       ///< PST of raw (NaN if unscored).
    double pstMitigated = 0.0;
    double istRaw = 0.0;
    double istMitigated = 0.0;
    double ehdRaw = 0.0;
    double ehdMitigated = 0.0;

    /** Sum of all stage timings. */
    double totalSeconds() const;

    /** Seconds spent in stage @p stage (0 when absent). */
    double stageSeconds(const std::string &stage) const;

    /**
     * Write the mitigated histogram in the interchange CSV format
     * (core::writeDistributionCsv), most probable outcome first.
     */
    void writeCsv(std::ostream &out, int precision = 8) const;

    /**
     * Write the full result as one JSON object: experiment identity,
     * per-stage timings, HAMMER stats, metrics (null when unscored)
     * and both histograms.
     *
     * @param max_outcomes Per-histogram entry cap, most probable
     *        first (-1 = all).
     */
    void writeJson(std::ostream &out, int max_outcomes = -1) const;

    /** writeJson into a string (one line, '\n' included). */
    std::string json(int max_outcomes = -1) const;

    /**
     * json() without its leading `{"label":<label>`: every byte
     * after the label field, '\n' included.  Nothing in it depends on
     * the label, so one encoding serves every handle of one
     * execution (ExecutionService::resultLine).
     */
    std::string jsonAfterLabel(int max_outcomes = -1) const;

    /**
     * The line json() gives for a result labelled @p label, from an
     * encoding @p afterLabel made by jsonAfterLabel().
     */
    static std::string jsonLine(const std::string &label,
                                const std::string &afterLabel);
};

/**
 * Deterministic intermediate state the staged pipeline entry points
 * thread from one stage to the next (the pieces later stages need
 * that the Result does not carry).
 *
 * The RNG is part of this state on purpose: it is seeded from the
 * spec in buildWorkload and consumed in a fixed order (workload
 * build, sampling, mitigation), so any two runs of the same spec see
 * identical draws no matter which execution path — Pipeline::run or
 * the ExecutionService's cached/coalesced stages — carried the state.
 */
struct RunState
{
    /** Experiment RNG, seeded from BackendSpec::seed. */
    common::Rng rng{0};

    /** Built workload (set by buildWorkload). */
    std::optional<Workload> workload;

    /** Resolved noise model (set by execute). */
    noise::NoiseModel model;

    /** Constructed backend (set by execute). */
    std::unique_ptr<noise::NoisySampler> sampler;
};

/**
 * The experiment pipeline over a pair of registries.
 *
 * Stateless apart from the registry references: run() is const and
 * thread-safe, and every run is deterministic in the spec alone
 * (the RNG is seeded from BackendSpec::seed), which is what makes
 * runMany trivially order- and thread-count-independent.
 *
 * run() is a composition of four reusable stages — buildWorkload,
 * execute, mitigate, score — each of which can also be called
 * individually with a RunState threaded through.  That staged form
 * is what ExecutionService builds on: it can replay the execute
 * stage from a cache (restoring the RNG to the post-sampling state)
 * and still produce results bit-identical to run().
 */
class Pipeline
{
  public:
    /** Pipeline over the global registries. */
    Pipeline();

    /** Pipeline over explicit registries (tests, custom stacks). */
    Pipeline(const WorkloadRegistry &workloads,
             const BackendRegistry &backends);

    /**
     * Run one experiment end to end: buildWorkload, execute,
     * mitigate, score.
     *
     * @throws std::invalid_argument for unknown registry keys or
     *         invalid budgets (shots/trajectories <= 0, ...); the
     *         message names the offending field or key.
     */
    Result run(const ExperimentSpec &spec) const;

    /**
     * Stage 1: validate the spec, seed the RNG, build + route the
     * workload ("workload" timing row), and fill the Result's
     * identity fields.
     *
     * @return The partially-filled Result the remaining stages
     *         complete.
     */
    Result buildWorkload(const ExperimentSpec &spec,
                         RunState &state) const;

    /**
     * Stages 2+3: stand up the backend ("backend" timing row) and
     * run the noisy sampling ("sample" row) through
     * NoisySampler::sampleBatch with the spec's thread count,
     * filling Result::raw.
     *
     * Callers that already hold the raw histogram for this spec
     * (the service's cache) call standUpBackend instead and inject
     * the histogram + post-sampling RNG themselves.
     */
    void execute(const ExperimentSpec &spec, RunState &state,
                 Result &result) const;

    /** Stage 2 alone: construct the backend and resolve the model. */
    void standUpBackend(const ExperimentSpec &spec, RunState &state,
                        Result &result) const;

    /**
     * Stage 4: apply the mitigation chain ("mitigate" timing row
     * plus one "mitigate:<stage>" detail row per chain stage),
     * filling Result::mitigated, mitigationName and hammerStats.
     */
    void mitigate(const ExperimentSpec &spec, RunState &state,
                  Result &result) const;

    /**
     * Stage 5: PST/IST/EHD scoring against the workload's correct
     * outcomes ("score" timing row); metrics are NaN when the
     * workload has none.  The terminal stage: it moves the workload
     * out of @p state into the Result.
     */
    void score(RunState &state, Result &result) const;

    /**
     * Run a batch of experiments, fanning the specs across a thread
     * pool.
     *
     * A thin wrapper over ExecutionService (submit all, wait in
     * order): each spec is an independent job whose result depends
     * only on the spec itself, so the returned vector is
     * bit-identical for every @p threads value (including 1), and
     * duplicate specs within the batch execute once (request
     * coalescing).  When more than one worker runs, per-spec inner
     * sampling threads are forced to 1 — the outer fan-out owns the
     * cores — which does not change any histogram (sampleBatch's own
     * guarantee).
     *
     * @param threads Worker threads; 0 selects the default
     *        (HAMMER_THREADS, else all hardware threads), capped at
     *        the batch size.
     */
    std::vector<Result> runMany(const std::vector<ExperimentSpec> &specs,
                                int threads = 0) const;

    const WorkloadRegistry &workloads() const { return *workloads_; }
    const BackendRegistry &backends() const { return *backends_; }

  private:
    const WorkloadRegistry *workloads_;
    const BackendRegistry *backends_;
};

} // namespace hammer::api

#endif // HAMMER_API_PIPELINE_HPP
