#include "plan/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"

namespace hammer::plan {

using common::require;

namespace {

constexpr double kNs = 1e-9;

/** Group index helper. */
constexpr std::size_t
idx(CostGroup g)
{
    return static_cast<std::size_t>(g);
}

/** Per-row sim slowdown of the active tier vs the 4-lane reference. */
double
simScale(const PlanFeatures &f)
{
    const int lanes = std::max(1, f.kernelLanes);
    return 4.0 / static_cast<double>(std::min(4, lanes));
}

void
finalize(PlanCost &cost)
{
    cost.seconds = 0.0;
    for (const double g : cost.groups)
        cost.seconds += g;
}

/** Fold the shared per-shot sampling terms into @p cost. */
void
addSampling(PlanCost &cost, const PlanFeatures &f,
            const CalibrationTable &t, double cdfBuilds)
{
    cost.groups[idx(CostGroup::Shots)] +=
        (static_cast<double>(f.shots) +
         0.25 * cdfBuilds * static_cast<double>(f.rows())) *
        t.shotNs * kNs;
}

/** One fused pass over the statevector, split by kernel class. */
void
addFusedPass(PlanCost &cost, const PlanFeatures &f,
             const CalibrationTable &t, double passes)
{
    const double rows = static_cast<double>(f.rows());
    const double scale = simScale(f) * passes * rows * kNs;
    cost.groups[idx(CostGroup::Dense1q)] +=
        static_cast<double>(f.dense1q) * t.dense1qRowNs * scale;
    cost.groups[idx(CostGroup::Diag)] +=
        static_cast<double>(f.diag) * t.diagRowNs * scale;
    cost.groups[idx(CostGroup::Perm)] +=
        static_cast<double>(f.perm) * t.permRowNs * scale;
    cost.groups[idx(CostGroup::Twoq)] +=
        static_cast<double>(f.twoq) * t.twoqRowNs * scale;
}

/** Fixed per-gate dispatch cost for @p ops gate applications. */
void
addDispatch(PlanCost &cost, const CalibrationTable &t, double ops)
{
    cost.groups[idx(CostGroup::Dispatch)] +=
        ops * t.dispatchOverheadRows * t.dense1qRowNs * kNs;
}

PlanCost
channelCost(const PlanFeatures &f, const CalibrationTable &t)
{
    PlanCost cost;
    // One ideal fused simulation...
    addFusedPass(cost, f, t, 1.0);
    addDispatch(cost, t,
                static_cast<double>(f.dense1q + f.diag + f.perm +
                                    f.twoq));
    // ...then analytic per-gate flip draws for every shot.
    cost.groups[idx(CostGroup::Flips)] +=
        static_cast<double>(f.shots) *
        static_cast<double>(f.sourceGates) * t.channelFlipNs * kNs;
    addSampling(cost, f, t, 1.0);
    cost.groups[idx(CostGroup::Overhead)] += t.planOverheadNs * kNs;
    finalize(cost);
    return cost;
}

PlanCost
trajectoryCost(const PlanFeatures &f, const PlanChoice &c,
               const CalibrationTable &t)
{
    PlanCost cost;
    const double rows = static_cast<double>(f.rows());
    const double gates = static_cast<double>(f.sourceGates);
    const double g2q = static_cast<double>(f.source2q);
    const double g1q = gates - g2q;

    // Checkpoint spacing from the memory budget (16 bytes/row).
    const double ckBytes = rows * 16.0;
    const double maxCk = std::floor(
        static_cast<double>(c.checkpointBudgetBytes) / ckBytes);
    const double ckCount = std::min(maxCk, gates);
    const double interval =
        ckCount >= 1.0 ? std::max(1.0, gates / ckCount) : gates;

    // A trajectory with at least one error replays from the
    // checkpoint preceding its first error: expected suffix is half
    // the stream plus half a checkpoint stride of rounding.
    const double suffix =
        std::min(gates, 0.5 * gates + 0.5 * interval);
    const double noisy = static_cast<double>(f.trajectories) *
        (1.0 - f.zeroErrorFraction);
    const double frac = gates > 0.0 ? suffix / gates : 0.0;

    // The replay stream is unfused 1q/2q gates: one clean pass plus
    // the expected replayed suffixes.
    const double passes = (1.0 + noisy * frac) * simScale(f) * rows *
        kNs;
    cost.groups[idx(CostGroup::Dense1q)] +=
        g1q * t.dense1qRowNs * passes;
    cost.groups[idx(CostGroup::Twoq)] += g2q * t.twoqRowNs * passes;

    // Batched sweeps amortise the fixed dispatch cost across lanes.
    const double laneAmort =
        static_cast<double>(std::max(1, c.batchLanes));
    addDispatch(cost, t, gates + noisy * suffix / laneAmort);

    // In-place Pauli injections, weighted per the batching planner.
    cost.groups[idx(CostGroup::Injection)] +=
        static_cast<double>(f.trajectories) * f.expectedErrors *
        t.injectionWeight * rows * t.permRowNs * simScale(f) * kNs;

    // Checkpoint stores during the clean pass + one copy per replay.
    cost.groups[idx(CostGroup::Checkpoint)] +=
        (ckCount + noisy) * rows * t.checkpointRowNs * kNs;

    addSampling(cost, f, t, static_cast<double>(f.trajectories));
    cost.groups[idx(CostGroup::Overhead)] +=
        2.0 * t.planOverheadNs * kNs;
    finalize(cost);
    return cost;
}

PlanCost
exactCost(const PlanFeatures &f, const CalibrationTable &t,
          bool cached)
{
    PlanCost cost;
    const double rows = static_cast<double>(f.rows());
    if (!cached || !f.cacheWarm) {
        // Density-matrix evolution: rows^2 elements touched per gate
        // (gate + depolarising channel folded into the coefficient).
        cost.groups[idx(CostGroup::Density)] +=
            static_cast<double>(f.sourceGates) * rows * rows *
            t.densityRowNs * kNs;
        cost.groups[idx(CostGroup::Overhead)] +=
            t.planOverheadNs * kNs;
    }
    if (cached)
        cost.groups[idx(CostGroup::CacheHit)] += t.cacheHitNs * kNs;
    addSampling(cost, f, t, 1.0);
    finalize(cost);
    return cost;
}

CalibrationTable &
mutableActive()
{
    static CalibrationTable table = defaultCalibrationTable();
    return table;
}

std::mutex &
activeMutex()
{
    static std::mutex mutex;
    return mutex;
}

} // namespace

const char *
costGroupName(CostGroup group)
{
    switch (group) {
    case CostGroup::Dense1q: return "dense1q_row_ns";
    case CostGroup::Diag: return "diag_row_ns";
    case CostGroup::Perm: return "perm_row_ns";
    case CostGroup::Twoq: return "twoq_row_ns";
    case CostGroup::Dispatch: return "dispatch_overhead_rows";
    case CostGroup::Injection: return "injection_weight";
    case CostGroup::Checkpoint: return "checkpoint_row_ns";
    case CostGroup::Shots: return "shot_ns";
    case CostGroup::Flips: return "channel_flip_ns";
    case CostGroup::Density: return "density_row_ns";
    case CostGroup::CacheHit: return "cache_hit_ns";
    case CostGroup::Overhead: return "plan_overhead_ns";
    }
    return "unknown";
}

PlanFeatures
extractFeatures(const sim::Circuit &circuit,
                const noise::NoiseModel &model, int shots,
                int trajectories)
{
    PlanFeatures f;
    f.qubits = circuit.numQubits();
    f.shots = shots;
    f.trajectories = trajectories;
    f.kernelLanes = sim::activeKernels().lanes;

    const sim::CompiledCircuit compiled =
        sim::CompiledCircuit::compile(circuit, {});
    for (const sim::CompiledOp &op : compiled.ops()) {
        switch (op.kind) {
        case sim::KernelKind::Mat1q: f.dense1q += 1; break;
        case sim::KernelKind::Diag:
        case sim::KernelKind::Phase:
        case sim::KernelKind::CZ: f.diag += 1; break;
        case sim::KernelKind::PauliX:
        case sim::KernelKind::PauliY:
        case sim::KernelKind::Swap: f.perm += 1; break;
        case sim::KernelKind::CX: f.twoq += 1; break;
        }
    }

    double logZero = 0.0;
    for (const sim::Gate &g : circuit.gates()) {
        f.sourceGates += 1;
        if (g.isTwoQubit()) {
            f.source2q += 1;
            f.expectedErrors += model.p2q;
            logZero += std::log1p(-std::min(model.p2q, 1.0 - 1e-12));
        } else {
            f.expectedErrors += model.p1q;
            logZero += std::log1p(-std::min(model.p1q, 1.0 - 1e-12));
        }
    }
    f.zeroErrorFraction = std::exp(logZero);
    return f;
}

PlanFeatures
approximateFeatures(int qubits, std::uint64_t gates1q,
                    std::uint64_t gates2q,
                    const noise::NoiseModel &model, int shots,
                    int trajectories)
{
    PlanFeatures f;
    f.qubits = qubits;
    f.shots = shots;
    f.trajectories = trajectories;
    f.kernelLanes = sim::activeKernels().lanes;
    // Assume fusion halves the 1q stream and the usual CX/CZ split.
    f.dense1q = (gates1q + 1) / 2;
    f.twoq = (gates2q + 1) / 2;
    f.diag = gates2q - f.twoq;
    f.sourceGates = gates1q + gates2q;
    f.source2q = gates2q;
    f.expectedErrors = static_cast<double>(gates1q) * model.p1q +
        static_cast<double>(gates2q) * model.p2q;
    f.zeroErrorFraction = std::exp(-f.expectedErrors);
    return f;
}

CalibrationTable
defaultCalibrationTable()
{
    return CalibrationTable{};
}

const CalibrationTable &
activeCalibration()
{
    // Callers install tables at start-up (CLI flag, env var, tests);
    // reads during steady-state execution see a stable object.
    return mutableActive();
}

void
setActiveCalibration(const CalibrationTable &table)
{
    std::lock_guard<std::mutex> lock(activeMutex());
    mutableActive() = table;
}

PlanCost
estimateCost(const PlanFeatures &features, const PlanChoice &choice,
             const CalibrationTable &table)
{
    if (choice.backend == "trajectory")
        return trajectoryCost(features, choice, table);
    if (choice.backend == "exact")
        return exactCost(features, table, false);
    if (choice.backend == "exact-cached")
        return exactCost(features, table, true);
    // Channel and any custom registry backend cost like the channel
    // plan.
    return channelCost(features, table);
}

std::vector<RankedPlan>
rankPlans(const PlanFeatures &features, const CalibrationTable &table)
{
    std::vector<PlanChoice> candidates;
    candidates.push_back({"channel", std::size_t{64} << 20, 8});
    for (const std::size_t budget :
         {std::size_t{16} << 20, std::size_t{64} << 20,
          std::size_t{256} << 20}) {
        for (const int lanes : {4, 8})
            candidates.push_back({"trajectory", budget, lanes});
    }
    if (features.qubits <= 10) {
        // The density-matrix backends hard-require <= 10 qubits.
        candidates.push_back({"exact", std::size_t{64} << 20, 8});
        candidates.push_back(
            {"exact-cached", std::size_t{64} << 20, 8});
    }

    std::vector<RankedPlan> ranked;
    ranked.reserve(candidates.size());
    for (const PlanChoice &c : candidates)
        ranked.push_back({c, estimateCost(features, c, table)});
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedPlan &a, const RankedPlan &b) {
                  if (a.cost.seconds != b.cost.seconds)
                      return a.cost.seconds < b.cost.seconds;
                  if (a.choice.backend != b.choice.backend)
                      return a.choice.backend < b.choice.backend;
                  if (a.choice.checkpointBudgetBytes !=
                      b.choice.checkpointBudgetBytes)
                      return a.choice.checkpointBudgetBytes <
                          b.choice.checkpointBudgetBytes;
                  return a.choice.batchLanes < b.choice.batchLanes;
              });
    return ranked;
}

noise::ReplayOptions
replayOptionsFor(const PlanChoice &choice,
                 const CalibrationTable &table)
{
    noise::ReplayOptions options;
    options.checkpointBudgetBytes = choice.checkpointBudgetBytes;
    options.batchLanes = choice.batchLanes;
    options.dispatchOverheadRows = table.dispatchOverheadRows;
    options.injectionWeight = table.injectionWeight;
    return options;
}

// ---------------------------------------------------------------------------
// Calibrator
// ---------------------------------------------------------------------------

void
Calibrator::addSample(const CalibrationSample &sample)
{
    require(sample.measuredSeconds >= 0.0,
            "Calibrator: negative measurement");
    samples_.push_back(sample);
}

CalibrationTable
Calibrator::fit(const CalibrationTable &seed) const
{
    constexpr std::size_t n = kCostGroups;

    // Basis: each sample's predicted per-group seconds under the
    // seed table.  We solve for one scale per group, ridge-shrunk
    // toward 1 so unobserved groups keep their seed values.
    std::vector<std::array<double, n>> basis;
    std::vector<double> measured;
    basis.reserve(samples_.size());
    double trace = 0.0;
    for (const CalibrationSample &s : samples_) {
        const PlanCost predicted =
            estimateCost(s.features, s.choice, seed);
        basis.push_back(predicted.groups);
        measured.push_back(s.measuredSeconds);
        for (const double g : predicted.groups)
            trace += g * g;
    }
    const double lambda =
        1e-3 * trace / static_cast<double>(n) + 1e-18;

    // Normal equations A x = b with A = G^T G + lambda I and
    // b = G^T y + lambda * 1.
    std::array<std::array<double, n>, n> A{};
    std::array<double, n> b{};
    for (std::size_t i = 0; i < n; ++i) {
        A[i][i] = lambda;
        b[i] = lambda;
    }
    for (std::size_t s = 0; s < basis.size(); ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            if (basis[s][i] == 0.0)
                continue;
            b[i] += basis[s][i] * measured[s];
            for (std::size_t j = 0; j < n; ++j)
                A[i][j] += basis[s][i] * basis[s][j];
        }
    }

    // Gaussian elimination with partial pivoting (n is tiny).
    std::array<double, n> x{};
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::fabs(A[r][col]) > std::fabs(A[pivot][col]))
                pivot = r;
        }
        std::swap(A[col], A[pivot]);
        std::swap(b[col], b[pivot]);
        const double diag = A[col][col];
        if (std::fabs(diag) < 1e-300)
            continue;
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = A[r][col] / diag;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                A[r][c] -= factor * A[col][c];
            b[r] -= factor * b[col];
        }
    }
    for (std::size_t col = n; col-- > 0;) {
        double sum = b[col];
        for (std::size_t c = col + 1; c < n; ++c)
            sum -= A[col][c] * x[c];
        x[col] = std::fabs(A[col][col]) < 1e-300
            ? 1.0
            : sum / A[col][col];
    }

    // Clamp: a fit should recalibrate, never invert or zero a
    // coefficient (which could break cost monotonicity).
    for (double &scale : x)
        scale = std::clamp(scale, 0.05, 20.0);

    CalibrationTable out = seed;
    out.dense1qRowNs *= x[idx(CostGroup::Dense1q)];
    out.diagRowNs *= x[idx(CostGroup::Diag)];
    out.permRowNs *= x[idx(CostGroup::Perm)];
    out.twoqRowNs *= x[idx(CostGroup::Twoq)];
    out.dispatchOverheadRows *= x[idx(CostGroup::Dispatch)];
    out.injectionWeight *= x[idx(CostGroup::Injection)];
    out.checkpointRowNs *= x[idx(CostGroup::Checkpoint)];
    out.shotNs *= x[idx(CostGroup::Shots)];
    out.channelFlipNs *= x[idx(CostGroup::Flips)];
    out.densityRowNs *= x[idx(CostGroup::Density)];
    out.cacheHitNs *= x[idx(CostGroup::CacheHit)];
    out.planOverheadNs *= x[idx(CostGroup::Overhead)];
    out.version = seed.version + 1;
    return out;
}

} // namespace hammer::plan
