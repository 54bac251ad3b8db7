#include "noise/trajectory_sampler.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "noise/readout.hpp"
#include "sim/kernels.hpp"

namespace hammer::noise {

using common::Bits;
using common::require;
using common::Rng;
using core::Distribution;
using sim::Circuit;
using sim::Gate;
using sim::GateKind;

TrajectorySampler::TrajectorySampler(const NoiseModel &model,
                                     int trajectories,
                                     const ReplayOptions &options)
    : model_(model), trajectories_(trajectories), options_(options)
{
    require(trajectories >= 1,
            "TrajectorySampler: need at least one trajectory");
    require(options.batchLanes >= 1,
            "TrajectorySampler: batchLanes must be >= 1");
}

Circuit
TrajectorySampler::noisyInstance(const Circuit &circuit, Rng &rng) const
{
    Circuit noisy(circuit.numQubits());
    const GateKind paulis[] = {GateKind::X, GateKind::Y, GateKind::Z};

    for (const Gate &g : circuit.gates()) {
        noisy.append(g);
        if (g.isTwoQubit()) {
            // Two-qubit depolarising channel: with probability p2q
            // draw one of the 15 non-identity two-qubit Paulis
            // uniformly.  9 of the 15 have errors on both qubits,
            // which is what produces the *correlated* multi-bit
            // flips the paper observes becoming dominant outcomes
            // (Section 4.2).
            if (model_.p2q > 0.0 && rng.bernoulli(model_.p2q)) {
                const auto pick =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                const int first = pick / 4;   // 0..3 (I,X,Y,Z)
                const int second = pick % 4;
                if (first != 0)
                    noisy.append({paulis[first - 1], g.q0});
                if (second != 0)
                    noisy.append({paulis[second - 1], g.q1});
            }
        } else {
            // Single-qubit depolarising channel.
            if (model_.p1q > 0.0 && rng.bernoulli(model_.p1q))
                noisy.append({paulis[rng.uniformInt(3)], g.q0});
        }
    }
    return noisy;
}

namespace {

/**
 * Run one trajectory through the engine: draw error placements, take
 * the zero-error fast path or a checkpointed replay, sample shots,
 * push them through readout noise and histogram the logical bits.
 *
 * RNG consumption is identical to the historical
 * noisyInstance-then-simulate engine, so trajectory results are
 * bit-compatible with it.
 */
void
runTrajectory(const ReplayEngine &engine,
              const circuits::RoutedCircuit &routed,
              const NoiseModel &model, Bits mask, int quota, Rng &rng,
              core::CountAccumulator &counts, ReplayStats &stats)
{
    const int n = routed.circuit.numQubits();
    const std::vector<ErrorEvent> events = engine.drawErrors(rng);

    ++stats.trajectories;
    stats.gatesFull += engine.numGates() + events.size();

    std::vector<Bits> raw;
    if (events.empty()) {
        ++stats.zeroError;
        raw = engine.cleanCdf().sampleShots(rng, quota);
    } else {
        stats.gatesReplayed +=
            (engine.numGates() - engine.replayStart(events)) +
            events.size();
        raw = engine.replay(events).sampleShots(rng, quota);
    }

    for (Bits physical : raw) {
        physical = applyReadoutError(physical, n, model, rng);
        const Bits logical = routed.toLogical(physical);
        counts.add(logical & mask);
    }
}

} // namespace

Distribution
TrajectorySampler::sample(const circuits::RoutedCircuit &routed,
                          int measured_qubits, int shots, Rng &rng)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "TrajectorySampler: bad measured qubit count");
    require(shots >= 1, "TrajectorySampler: need at least one shot");

    const Bits mask = measured_qubits == 64
        ? ~Bits{0}
        : (Bits{1} << measured_qubits) - 1;

    const ReplayEngine engine(routed.circuit, model_, options_);
    ReplayStats stats;
    stats.gatesReplayed += engine.numGates(); // the one clean pass

    core::CountAccumulator counts;
    counts.reserve(static_cast<std::size_t>(shots));
    int assigned = 0;
    for (int t = 0; t < trajectories_; ++t) {
        // Spread the budget evenly; earlier trajectories absorb the
        // remainder so the total is exactly `shots`.
        const int quota = (shots - assigned) / (trajectories_ - t);
        if (quota == 0)
            continue;
        assigned += quota;
        runTrajectory(engine, routed, model_, mask, quota, rng,
                      counts, stats);
    }
    stats_.merge(stats);
    return counts.toDistribution(measured_qubits);
}

namespace {

/** One pre-drawn trajectory awaiting simulation + sampling. */
struct PendingTrajectory
{
    int quota;
    Rng stream; ///< Forked stream, positioned after drawErrors.
    std::vector<ErrorEvent> events;
    std::size_t start; ///< replayStart(events).
};

/**
 * One deterministic work unit: either a single zero-error trajectory
 * (samples the shared clean CDF) or a group of noisy trajectories
 * swept together from the earliest member's checkpoint (one batched
 * SoA pass, up to batchLanes lanes).  The item list depends only on
 * the pre-drawn events, never on scheduling, so any thread count
 * produces the same partition.
 */
struct WorkItem
{
    bool clean;
    std::size_t start;
    std::vector<std::size_t> members; ///< Indices into the pending list.
};

/** Sample + readout one finished trajectory state into @p counts. */
void
resolveShots(const std::vector<Bits> &raw,
             const circuits::RoutedCircuit &routed,
             const NoiseModel &model, Bits mask, Rng &rng,
             core::CountAccumulator &counts)
{
    const int n = routed.circuit.numQubits();
    for (Bits physical : raw) {
        physical = applyReadoutError(physical, n, model, rng);
        const Bits logical = routed.toLogical(physical);
        counts.add(logical & mask);
    }
}

} // namespace

Distribution
TrajectorySampler::sampleBatch(const circuits::RoutedCircuit &routed,
                               int measured_qubits, int shots,
                               Rng &rng, int threads)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "TrajectorySampler: bad measured qubit count");
    require(shots >= 1, "TrajectorySampler: need at least one shot");

    const Bits mask = measured_qubits == 64
        ? ~Bits{0}
        : (Bits{1} << measured_qubits) - 1;

    // Same quota schedule as the serial path: spread the budget
    // evenly, earlier trajectories absorbing the remainder.
    std::vector<int> quotas(static_cast<std::size_t>(trajectories_));
    int assigned = 0;
    for (int t = 0; t < trajectories_; ++t) {
        quotas[static_cast<std::size_t>(t)] =
            (shots - assigned) / (trajectories_ - t);
        assigned += quotas[static_cast<std::size_t>(t)];
    }

    // One draw from the caller's generator seeds the whole batch;
    // trajectory t then runs off master.fork(t), making its output a
    // pure function of (caller RNG state, t) — independent of thread
    // count, scheduling order and batch grouping.
    const Rng master = rng.split();

    // The replay engine is immutable after construction: every
    // worker reads the same checkpoints and clean CDF.
    const ReplayEngine engine(routed.circuit, model_, options_);

    ReplayStats stats;
    stats.gatesReplayed += engine.numGates(); // the one clean pass

    // Pre-draw every trajectory's error placements on its own stream.
    // Each stream stays positioned right after drawErrors, exactly
    // where the historical per-trajectory worker would be, so the
    // later sampleShots/readout draws consume it identically.
    std::vector<PendingTrajectory> pending;
    pending.reserve(static_cast<std::size_t>(trajectories_));
    for (int t = 0; t < trajectories_; ++t) {
        const int quota = quotas[static_cast<std::size_t>(t)];
        if (quota == 0)
            continue;
        PendingTrajectory p;
        p.quota = quota;
        p.stream = master.fork(static_cast<std::uint64_t>(t));
        p.events = engine.drawErrors(p.stream);
        p.start = engine.replayStart(p.events);
        pending.push_back(std::move(p));
        stats.trajectories += 1;
        stats.gatesFull +=
            engine.numGates() + pending.back().events.size();
    }

    // Deterministic work partition: zero-error trajectories are
    // singleton clean items; noisy trajectories sort by replay
    // checkpoint and pack greedily into batches.  Lanes in a batch
    // may start at different checkpoints — the sweep begins at the
    // earliest one and later lanes ride the shared clean prefix
    // (bit-identical to copying their own checkpoint).  A member
    // joins only while its own replay covers most of the sweep, and
    // the chunk batches only when a cost model predicts the SoA pass
    // beats the single-state replays it replaces.
    //
    // The model, in amplitude-row units: a gate application costs
    // (overhead + rows), where `overhead` is the fixed per-gate
    // dispatch cost expressed as equivalent rows
    // (options_.dispatchOverheadRows, calibrated).  Batching
    // amortises only that fixed part across lanes, so it pays off on
    // small, overhead-dominated states; for large states the sweep
    // is bandwidth-bound and a lane stays as cheap alone as in a
    // batch.  A per-lane error injection is a strided pass that
    // drags every padded lane through the cache — about one
    // injectionWeight of a whole batched gate — which makes
    // event-dense trajectories poor batching candidates.
    std::vector<WorkItem> items;
    std::vector<std::size_t> noisy;
    for (std::size_t idx = 0; idx < pending.size(); ++idx) {
        if (pending[idx].events.empty()) {
            items.push_back({true, engine.numGates(), {idx}});
            stats.zeroError += 1;
        } else {
            noisy.push_back(idx);
            stats.gatesReplayed +=
                (engine.numGates() - pending[idx].start) +
                pending[idx].events.size();
        }
    }
    std::stable_sort(noisy.begin(), noisy.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pending[a].start < pending[b].start;
                     });
    const std::size_t lanes =
        static_cast<std::size_t>(engine.batchLanes());
    const std::size_t gates = engine.numGates();
    const double overhead = options_.dispatchOverheadRows /
        static_cast<double>(engine.dimension());
    for (std::size_t at = 0; at < noisy.size();) {
        const std::size_t chunk_start = pending[noisy[at]].start;
        const std::size_t sweep = gates - chunk_start;
        std::size_t end = at + 1;
        std::size_t single_work = sweep;
        std::size_t chunk_events = pending[noisy[at]].events.size();
        while (end - at < lanes && end < noisy.size() &&
               4 * (gates - pending[noisy[end]].start) >= 3 * sweep) {
            single_work += gates - pending[noisy[end]].start;
            chunk_events += pending[noisy[end]].events.size();
            ++end;
        }
        const std::size_t padded =
            (end - at + sim::kBatchLaneMultiple - 1) /
            sim::kBatchLaneMultiple * sim::kBatchLaneMultiple;
        const double batched_cost =
            (overhead + static_cast<double>(padded)) *
                static_cast<double>(sweep) +
            options_.injectionWeight * static_cast<double>(padded) *
                static_cast<double>(chunk_events);
        const double single_cost = (overhead + 1.0) *
            static_cast<double>(single_work + chunk_events);
        if (end - at >= 2 && batched_cost <= single_cost) {
            items.push_back(
                {false, chunk_start,
                 {noisy.begin() + static_cast<std::ptrdiff_t>(at),
                  noisy.begin() + static_cast<std::ptrdiff_t>(end)}});
            stats.batchSweeps += 1;
            stats.batchedTrajectories += end - at;
        } else {
            // Padding, prefix redo or injection traffic would
            // outweigh the sharing: fall back to single-state
            // replays.
            for (std::size_t g = at; g < end; ++g)
                items.push_back({false, pending[noisy[g]].start,
                                 {noisy[g]}});
        }
        at = end;
    }

    // Resolve the request against the item count and run on the
    // shared pool when possible (no per-call thread spawning).
    const int workers = common::ThreadPool::resolveThreadCount(
        threads, items.size());
    std::vector<core::CountAccumulator> partials(
        static_cast<std::size_t>(workers));
    common::ThreadPool::run(
        workers, items.size(), [&](std::size_t w, int slot) {
            const WorkItem &item = items[w];
            core::CountAccumulator &counts =
                partials[static_cast<std::size_t>(slot)];
            if (item.clean) {
                PendingTrajectory &p = pending[item.members[0]];
                const std::vector<Bits> raw =
                    engine.cleanCdf().sampleShots(p.stream, p.quota);
                resolveShots(raw, routed, model_, mask, p.stream,
                             counts);
                return;
            }
            if (item.members.size() == 1) {
                // Lone trajectory at this checkpoint: the
                // single-state replay path (identical formulas, no
                // batch copy overhead).
                PendingTrajectory &p = pending[item.members[0]];
                const std::vector<Bits> raw =
                    engine.replay(p.events).sampleShots(p.stream,
                                                        p.quota);
                resolveShots(raw, routed, model_, mask, p.stream,
                             counts);
                return;
            }
            std::vector<const std::vector<ErrorEvent> *> group;
            group.reserve(item.members.size());
            for (std::size_t idx : item.members)
                group.push_back(&pending[idx].events);
            const sim::BatchedStateVector batch =
                engine.replayBatch(item.start, group);
            for (std::size_t g = 0; g < item.members.size(); ++g) {
                PendingTrajectory &p = pending[item.members[g]];
                const sim::StateVector state =
                    batch.extractLane(static_cast<int>(g));
                const std::vector<Bits> raw =
                    state.sampleShots(p.stream, p.quota);
                resolveShots(raw, routed, model_, mask, p.stream,
                             counts);
            }
        });

    stats_.merge(stats);

    const core::CountAccumulator merged =
        core::CountAccumulator::treeReduce(partials);
    return merged.toDistribution(measured_qubits);
}

} // namespace hammer::noise
