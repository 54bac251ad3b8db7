#include "noise/channel_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "noise/readout.hpp"
#include "sim/simulator.hpp"

namespace hammer::noise {

using common::Bits;
using common::require;
using common::Rng;
using core::Distribution;

namespace {

/** Probability of an odd number of flips from two independent flips. */
double
combineFlips(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

/** Physical qubit -> final resident logical qubit (or -1). */
std::vector<int>
inverseLayout(const circuits::RoutedCircuit &routed)
{
    std::vector<int> phys_to_logical(
        static_cast<std::size_t>(routed.circuit.numQubits()), -1);
    for (std::size_t l = 0; l < routed.logicalToPhysical.size(); ++l) {
        phys_to_logical[static_cast<std::size_t>(
            routed.logicalToPhysical[l])] = static_cast<int>(l);
    }
    return phys_to_logical;
}

} // namespace

ChannelSampler::ChannelSampler(const NoiseModel &model,
                               const ChannelParams &params)
    : model_(model), params_(params)
{
    require(params.flipPer1q >= 0.0 && params.flipPer1q <= 1.0 &&
            params.marginalFlipPer2q >= 0.0 &&
            params.marginalFlipPer2q <= 1.0 &&
            params.exclusiveFlipPer2q >= 0.0 &&
            params.correlatedFlipPer2q >= 0.0 &&
            params.exclusiveFlipPer2q + params.correlatedFlipPer2q
                <= 1.0,
            "ChannelParams: flip fractions must be valid "
            "probabilities");
    require(params.maxScramble >= 0.0 && params.maxScramble < 1.0,
            "ChannelParams: maxScramble must be in [0, 1)");
    require(params.coherentPer2q >= 0.0,
            "ChannelParams: coherentPer2q must be non-negative");
    require(params.burstProbability >= 0.0 &&
            params.burstProbability < 1.0,
            "ChannelParams: burstProbability must be in [0, 1)");
}

std::vector<double>
ChannelSampler::gateFlipProbabilities(
    const circuits::RoutedCircuit &routed) const
{
    const sim::GateCounts counts = routed.circuit.gateCounts();
    const std::size_t logical_count = routed.logicalToPhysical.size();

    std::vector<double> flip(logical_count, 0.0);
    for (std::size_t l = 0; l < logical_count; ++l) {
        // Attribute the physical qubit's gate activity to the logical
        // qubit that ends up living there (exact for SWAP-free
        // circuits, a faithful first-order proxy otherwise).
        const auto p = static_cast<std::size_t>(
            routed.logicalToPhysical[l]);
        const double keep1 = std::pow(
            1.0 - params_.flipPer1q * model_.p1q, counts.perQubit1q[p]);
        const double keep2 = std::pow(
            1.0 - params_.marginalFlipPer2q * model_.p2q,
            counts.perQubit2q[p]);
        flip[l] = 1.0 - keep1 * keep2;
    }
    return flip;
}

std::vector<CorrelatedFlip>
ChannelSampler::correlatedFlips(const circuits::RoutedCircuit &routed,
                                int measured_qubits) const
{
    const auto phys_to_logical = inverseLayout(routed);

    // Count 2q gates per physical pair whose *final residents* are
    // both measured logical bits.
    std::map<std::pair<int, int>, int> pair_counts;
    for (const sim::Gate &g : routed.circuit.gates()) {
        if (!g.isTwoQubit())
            continue;
        const int la = phys_to_logical[static_cast<std::size_t>(g.q0)];
        const int lb = phys_to_logical[static_cast<std::size_t>(g.q1)];
        if (la < 0 || lb < 0 || la >= measured_qubits ||
            lb >= measured_qubits) {
            continue;
        }
        ++pair_counts[{std::min(la, lb), std::max(la, lb)}];
    }

    std::vector<CorrelatedFlip> flips;
    flips.reserve(pair_counts.size());
    for (const auto &[pair, count] : pair_counts) {
        const double prob = 1.0 - std::pow(
            1.0 - params_.correlatedFlipPer2q * model_.p2q, count);
        if (prob > 0.0)
            flips.push_back({pair.first, pair.second, prob});
    }
    return flips;
}

std::vector<double>
ChannelSampler::coherentFlipProbabilities(
    const circuits::RoutedCircuit &routed) const
{
    const std::size_t logical_count = routed.logicalToPhysical.size();
    std::vector<double> flip(logical_count, 0.0);
    if (params_.coherentPer2q == 0.0)
        return flip;

    const sim::GateCounts counts = routed.circuit.gateCounts();
    for (std::size_t l = 0; l < logical_count; ++l) {
        const auto p = static_cast<std::size_t>(
            routed.logicalToPhysical[l]);
        // Coherent errors add in amplitude, so the accumulated
        // rotation angle grows linearly with the gate count.
        const double theta =
            params_.coherentPer2q * counts.perQubit2q[p];
        const double s = std::sin(theta);
        flip[l] = s * s;
    }
    return flip;
}

double
ChannelSampler::scrambleProbability(
    const circuits::RoutedCircuit &routed) const
{
    const sim::GateCounts counts = routed.circuit.gateCounts();
    const double survive = std::pow(
        1.0 - params_.scramblePer2q * model_.p2q, counts.twoQubit);
    return std::min(1.0 - survive, params_.maxScramble);
}

std::vector<double>
ChannelSampler::independentFlipProbabilities(
    const circuits::RoutedCircuit &routed, int measured_qubits) const
{
    // Independent per-bit flip probabilities.  Gates whose partner
    // bit also participates in the correlated channel contribute
    // only their single-sided (exclusive) share here; gates paired
    // with unmeasured qubits contribute their full marginal.
    const auto phys_to_logical = inverseLayout(routed);
    std::vector<int> count_1q(static_cast<std::size_t>(measured_qubits),
                              0);
    std::vector<int> count_2q_paired(
        static_cast<std::size_t>(measured_qubits), 0);
    std::vector<int> count_2q_lone(
        static_cast<std::size_t>(measured_qubits), 0);
    for (const sim::Gate &g : routed.circuit.gates()) {
        if (g.isTwoQubit()) {
            const int la =
                phys_to_logical[static_cast<std::size_t>(g.q0)];
            const int lb =
                phys_to_logical[static_cast<std::size_t>(g.q1)];
            const bool a_measured = la >= 0 && la < measured_qubits;
            const bool b_measured = lb >= 0 && lb < measured_qubits;
            if (a_measured) {
                ++(b_measured
                   ? count_2q_paired[static_cast<std::size_t>(la)]
                   : count_2q_lone[static_cast<std::size_t>(la)]);
            }
            if (b_measured) {
                ++(a_measured
                   ? count_2q_paired[static_cast<std::size_t>(lb)]
                   : count_2q_lone[static_cast<std::size_t>(lb)]);
            }
        } else {
            const int l = phys_to_logical[static_cast<std::size_t>(
                g.q0)];
            if (l >= 0 && l < measured_qubits)
                ++count_1q[static_cast<std::size_t>(l)];
        }
    }
    const auto coherent = coherentFlipProbabilities(routed);
    std::vector<double> independent_flip(
        static_cast<std::size_t>(measured_qubits), 0.0);
    for (int q = 0; q < measured_qubits; ++q) {
        const auto i = static_cast<std::size_t>(q);
        const double keep =
            std::pow(1.0 - params_.flipPer1q * model_.p1q,
                     count_1q[i]) *
            std::pow(1.0 - params_.exclusiveFlipPer2q * model_.p2q,
                     count_2q_paired[i]) *
            std::pow(1.0 - params_.marginalFlipPer2q * model_.p2q,
                     count_2q_lone[i]);
        independent_flip[i] = combineFlips(1.0 - keep, coherent[i]);
    }
    return independent_flip;
}

namespace {

/**
 * Widest measured register counted densely (256 KiB of uint32 counts
 * per worker slot at the cap).  The counting path depends on m alone,
 * never on the thread count.
 */
constexpr int kDenseCountBits = 16;

/** Per-circuit channel quantities shared by every shot. */
struct ShotPlan
{
    int measuredQubits;
    Bits mask;
    double scramble;
    std::vector<CorrelatedFlip> correlated;
    /**
     * Per-bit flip probability when the bit reads 0 / 1 before its
     * own flip: the independent gate flip combined with the readout
     * error of that value.
     */
    std::vector<double> flip0;
    std::vector<double> flip1;
    circuits::OutcomeRelabel relabel;
};

/** Push one ideal logical outcome through the noise channels. */
Bits
applyShotNoise(const ShotPlan &plan, const ChannelParams &params,
               Bits logical, Rng &rng)
{
    if (plan.scramble > 0.0 && rng.bernoulli(plan.scramble))
        return rng.uniformInt(Bits{1} << plan.measuredQubits);
    if (params.burstProbability > 0.0 &&
        rng.bernoulli(params.burstProbability)) {
        // Device-specific correlated error burst: when it fires it
        // dominates the other channels, so the shot reports exactly
        // the ideal outcome with the burst pattern applied.  The
        // resulting spike has a thin neighbourhood of its own — the
        // property HAMMER exploits to demote it.
        return (logical & plan.mask) ^ (params.burstPattern & plan.mask);
    }
    Bits observed = logical & plan.mask;
    // Correlated double flips from two-qubit gate errors.
    for (const CorrelatedFlip &cf : plan.correlated) {
        if (rng.bernoulli(cf.probability)) {
            observed ^= Bits{1} << cf.qubitA;
            observed ^= Bits{1} << cf.qubitB;
        }
    }
    // Independent flips (gate singles + readout).  A zero-probability
    // bit consumes no draw.
    for (int q = 0; q < plan.measuredQubits; ++q) {
        const auto i = static_cast<std::size_t>(q);
        const double flip =
            ((observed >> q) & 1ull) ? plan.flip1[i] : plan.flip0[i];
        if (flip > 0.0 && rng.bernoulli(flip))
            observed ^= Bits{1} << q;
    }
    return observed;
}

/**
 * Draw @p quota ideal outcomes from @p cdf, then push each through
 * the channels and hand the noisy logical outcome to @p record — the
 * one shot loop of both entry points.
 */
template <typename Record>
void
runShots(const ShotPlan &plan, const ChannelParams &params,
         const sim::OutcomeCdf &cdf, int quota, Rng &rng,
         Record &&record)
{
    for (Bits physical : cdf.sampleShots(rng, quota))
        record(applyShotNoise(plan, params, plan.relabel(physical), rng));
}

/**
 * Histogram the shots @p fill produces.  fill(record) calls
 * record(slot, outcome) once per shot, each slot from one thread at a
 * time; the per-slot partials are then merged without atomics.  Up to
 * kDenseCountBits measured bits a slot counts into a dense uint32
 * array, allocated by its first shot (the pool may hand a slot no
 * work), and the arrays are added element-wise and emitted in
 * ascending order as count / shots; wider registers use
 * CountAccumulator partials and its tree reduction.  Integer counts
 * add exactly, so both paths give the same histogram for any
 * partition of the shots.
 */
template <typename Fill>
Distribution
countShots(int measured_qubits, int shots, int slots, Fill &&fill)
{
    if (measured_qubits > kDenseCountBits) {
        std::vector<core::CountAccumulator> partials(
            static_cast<std::size_t>(slots));
        fill([&](int slot, Bits x) {
            partials[static_cast<std::size_t>(slot)].add(x);
        });
        return core::CountAccumulator::treeReduce(partials)
            .toDistribution(measured_qubits);
    }

    const std::size_t dim = std::size_t{1} << measured_qubits;
    std::vector<std::vector<std::uint32_t>> partials(
        static_cast<std::size_t>(slots));
    fill([&](int slot, Bits x) {
        auto &local = partials[static_cast<std::size_t>(slot)];
        if (local.empty())
            local.assign(dim, 0);
        ++local[x];
    });
    std::vector<std::uint32_t> merged(dim, 0);
    for (const auto &local : partials) {
        for (std::size_t x = 0; x < local.size(); ++x)
            merged[x] += local[x];
    }
    const double total = static_cast<double>(shots);
    std::vector<core::Entry> entries;
    for (std::size_t x = 0; x < dim; ++x) {
        if (merged[x] != 0)
            entries.push_back({x, static_cast<double>(merged[x]) / total});
    }
    return Distribution::fromSorted(measured_qubits, std::move(entries));
}

/** Resolve a circuit's channel quantities into per-shot tables. */
ShotPlan
makeShotPlan(const circuits::RoutedCircuit &routed, int measured_qubits,
             double scramble, std::vector<CorrelatedFlip> correlated,
             const std::vector<double> &independent,
             const NoiseModel &model)
{
    std::vector<double> flip0(independent.size());
    std::vector<double> flip1(independent.size());
    for (std::size_t q = 0; q < independent.size(); ++q) {
        flip0[q] = combineFlips(independent[q], model.readout01);
        flip1[q] = combineFlips(independent[q], model.readout10);
    }
    return ShotPlan{measured_qubits,
                    measured_qubits == 64
                        ? ~Bits{0}
                        : (Bits{1} << measured_qubits) - 1,
                    scramble,
                    std::move(correlated),
                    std::move(flip0),
                    std::move(flip1),
                    circuits::OutcomeRelabel(routed)};
}

} // namespace

Distribution
ChannelSampler::sample(const circuits::RoutedCircuit &routed,
                       int measured_qubits, int shots, Rng &rng)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "ChannelSampler: bad measured qubit count");
    require(shots >= 1, "ChannelSampler: need at least one shot");

    // The ideal state lives only until its CDF exists.
    const sim::OutcomeCdf cdf(sim::runCircuit(routed.circuit));
    const ShotPlan plan = makeShotPlan(
        routed, measured_qubits, scrambleProbability(routed),
        correlatedFlips(routed, measured_qubits),
        independentFlipProbabilities(routed, measured_qubits), model_);

    return countShots(measured_qubits, shots, 1, [&](auto &&record) {
        runShots(plan, params_, cdf, shots, rng,
                 [&](Bits x) { record(0, x); });
    });
}

Distribution
ChannelSampler::sampleBatch(const circuits::RoutedCircuit &routed,
                            int measured_qubits, int shots, Rng &rng,
                            int threads)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "ChannelSampler: bad measured qubit count");
    require(shots >= 1, "ChannelSampler: need at least one shot");

    // One CDF for the whole batch: every chunk draws from it instead
    // of sweeping the state again, and the ideal state lives only
    // until the CDF exists.
    const sim::OutcomeCdf cdf(sim::runCircuit(routed.circuit));
    const ShotPlan plan = makeShotPlan(
        routed, measured_qubits, scrambleProbability(routed),
        correlatedFlips(routed, measured_qubits),
        independentFlipProbabilities(routed, measured_qubits), model_);

    // Fixed-size chunks: the chunk schedule depends only on the shot
    // count — never the thread count — so every thread count
    // produces the same work items and (via fork) the same
    // histogram.  Small enough that a default 8192-shot call still
    // spreads across 8 workers.
    constexpr int kChunkShots = 1024;
    const int chunks = (shots + kChunkShots - 1) / kChunkShots;

    const Rng master = rng.split();

    // Resolve the request against the chunk count and run on the
    // shared pool when possible (no per-call thread spawning).
    const int workers = common::ThreadPool::resolveThreadCount(
        threads, static_cast<std::size_t>(chunks));
    return countShots(measured_qubits, shots, workers, [&](auto &&record) {
        common::ThreadPool::run(
            workers, static_cast<std::size_t>(chunks),
            [&](std::size_t c, int slot) {
                const int base = static_cast<int>(c) * kChunkShots;
                const int quota = std::min(kChunkShots, shots - base);
                Rng stream = master.fork(c);
                runShots(plan, params_, cdf, quota, stream,
                         [&](Bits x) { record(slot, x); });
            });
    });
}

} // namespace hammer::noise
