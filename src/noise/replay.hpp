/**
 * @file
 * Checkpointed trajectory replay.
 *
 * The Monte-Carlo trajectory backend used to re-simulate the full
 * circuit from |0...0> for every noise realisation.  The replay
 * engine instead simulates the *clean* circuit once, stores
 * statevector checkpoints every K gates (K chosen from a memory
 * budget), and serves each trajectory by:
 *
 *  - drawing the trajectory's Pauli-error placements up front (RNG
 *    draw-for-draw compatible with TrajectorySampler::noisyInstance,
 *    so trajectory t remains a pure function of the caller RNG
 *    state);
 *  - sampling the clean state's outcome CDF, built once, when no
 *    error fired (the common case at realistic p1q/p2q — zero gates
 *    simulated, O(log 2^n) per shot);
 *  - otherwise copying the last checkpoint preceding the first error
 *    and replaying only the suffix, injecting errors as in-place
 *    X/Y/Z kernels instead of building a fresh Circuit.
 *
 * SWAP gates move no amplitudes.  The engine keeps a wire -> storage
 * bit map; a Swap op only exchanges two entries, and every other op
 * and every injected Pauli runs on the mapped bits.  The map starts
 * at the permutation the circuit's SWAPs undo — |0...0> reads the
 * same under any bit map — so every finished state, replayed or
 * batched, ends in wire order with no gather.  Checkpoints are kept in
 * the layout of their gate position.
 *
 * Replayed amplitudes are bit-identical to a from-scratch gate-by-gate
 * simulation of the equivalent noisy circuit: each kernel applies the
 * same per-amplitude formula to every pair, so where a pair sits in
 * storage changes no rounding (see
 * tests/noise/test_replay_determinism.cpp).
 */

#ifndef HAMMER_NOISE_REPLAY_HPP
#define HAMMER_NOISE_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/statevector.hpp"

namespace hammer::noise {

/** One injected Pauli error: applied right after gate @p gateIndex. */
struct ErrorEvent
{
    std::uint32_t gateIndex;
    sim::GateKind pauli; ///< X, Y or Z.
    int qubit;
};

/** Replay tuning knobs. */
struct ReplayOptions
{
    /**
     * Memory budget for checkpoint statevectors, per engine (i.e.
     * per sample() call).  The checkpoint interval K is the smallest
     * gate stride whose checkpoint count fits the budget; a budget
     * too small for even one checkpoint degrades gracefully to
     * replay-from-scratch.
     */
    std::size_t checkpointBudgetBytes = std::size_t{64} << 20;

    /**
     * Lane count for batched trajectory replay (sampleBatch groups up
     * to this many trajectories sharing a checkpoint into one SoA
     * sweep).  1 disables batching (every trajectory replays alone,
     * the historical single-state path).
     */
    int batchLanes = 8;

    /**
     * Fixed per-gate dispatch cost, expressed as equivalent amplitude
     * rows.  Batched replay amortises only this fixed part across
     * lanes, so it decides when an SoA sweep beats single-state
     * replays.  The default matches the hand calibration of the
     * original batching planner; plan::CalibrationTable carries a
     * fitted value (plan::replayOptionsFor).
     */
    double dispatchOverheadRows = 512.0;

    /**
     * Relative cost of one per-lane error injection versus one
     * batched gate application (a strided pass drags every padded
     * lane through the cache).  Same calibration story as
     * dispatchOverheadRows.
     */
    double injectionWeight = 4.0 / 3.0;
};

/** Work accounting for the replay engine (gate applications). */
struct ReplayStats
{
    std::uint64_t trajectories = 0;
    std::uint64_t zeroError = 0;     ///< Served by the clean CDF.
    std::uint64_t gatesFull = 0;     ///< From-scratch engine would run.
    std::uint64_t gatesReplayed = 0; ///< Actually run (incl. clean
                                     ///< pass + injected Paulis).
    std::uint64_t batchSweeps = 0;   ///< Batched replay sweeps run.
    std::uint64_t batchedTrajectories = 0; ///< Trajectories served by
                                           ///< a shared batch sweep.

    /** Fraction of trajectories served without simulating a gate. */
    double hitRate() const
    {
        return trajectories == 0
            ? 0.0
            : static_cast<double>(zeroError) /
                  static_cast<double>(trajectories);
    }

    /** Executed share of the gate work a full engine would do. */
    double replayedFraction() const
    {
        return gatesFull == 0
            ? 0.0
            : static_cast<double>(gatesReplayed) /
                  static_cast<double>(gatesFull);
    }

    void merge(const ReplayStats &other)
    {
        trajectories += other.trajectories;
        zeroError += other.zeroError;
        gatesFull += other.gatesFull;
        gatesReplayed += other.gatesReplayed;
        batchSweeps += other.batchSweeps;
        batchedTrajectories += other.batchedTrajectories;
    }
};

/**
 * Per-circuit replay state: unfused compiled ops, the starting bit
 * map, checkpoints and the clean outcome CDF.  Immutable after
 * construction, so one engine can serve any number of concurrent
 * trajectory workers.
 */
class ReplayEngine
{
  public:
    ReplayEngine(const sim::Circuit &circuit, const NoiseModel &model,
                 const ReplayOptions &options = {});

    /**
     * Draw one trajectory's error placements.
     *
     * Consumes @p rng draw-for-draw like
     * TrajectorySampler::noisyInstance (one Bernoulli per gate when
     * the rate is nonzero, one uniform when it fires), so the two
     * are interchangeable in any RNG stream.
     */
    std::vector<ErrorEvent> drawErrors(common::Rng &rng) const;

    /**
     * Outcome CDF of the clean circuit's final state (zero-error fast
     * path): its sampleShots() matches sampling the clean state.
     */
    const sim::OutcomeCdf &cleanCdf() const { return clean_; }

    /** Amplitudes per state (2^n). */
    std::size_t dimension() const { return clean_.dimension(); }

    /**
     * First gate index the trajectory must simulate: the position of
     * the checkpoint preceding the first injected error (numGates()
     * when @p events is empty — nothing to simulate).
     */
    std::size_t replayStart(
        const std::vector<ErrorEvent> &events) const;

    /**
     * Simulate one trajectory: copy the checkpoint at replayStart()
     * and replay the remaining gates, injecting @p events in place.
     * The result is in wire order.
     *
     * @pre events is non-empty and ordered by gateIndex (as
     *      drawErrors returns it).
     */
    sim::StateVector replay(
        const std::vector<ErrorEvent> &events) const;

    /**
     * Simulate up to batchLanes() trajectories in a single batched
     * SoA sweep.
     *
     * @p start must equal the earliest replayStart(*events) in the
     * group.  Lanes whose own checkpoint lies deeper simply ride the
     * shared clean gate stream until they reach it — bit-identical to
     * copying that checkpoint, because the batched kernels evaluate
     * the same per-lane formulas that produced it — and only then
     * start taking their error injections.  Lane g of the result is
     * in wire order and bit-identical to replay(*group[g]).
     *
     * @param start Earliest member checkpoint (a checkpoint boundary).
     * @param group One non-empty event list per lane, each ordered by
     *        gateIndex; size in [1, batchLanes()].
     */
    sim::BatchedStateVector replayBatch(
        std::size_t start,
        const std::vector<const std::vector<ErrorEvent> *> &group)
        const;

    /** Configured lane budget for replayBatch (>= 1). */
    int batchLanes() const { return batchLanes_; }

    std::size_t numGates() const { return ops_.ops().size(); }
    std::size_t checkpointInterval() const { return interval_; }
    std::size_t checkpointCount() const { return checkpoints_.size(); }

  private:
    /** Clean pass: fills checkpoints_, returns the final CDF. */
    sim::OutcomeCdf cleanPass();

    /** Wire -> storage bit, before gate @p gate. */
    std::vector<int> layoutAt(std::size_t gate) const;

    NoiseModel model_;
    sim::CompiledCircuit ops_; ///< Unfused: op i == source gate i.
    int batchLanes_;           ///< Lane budget for replayBatch.
    std::size_t interval_;     ///< Gates between checkpoints.
    /** Bit map before gate 0: the SWAPs take it to the identity. */
    std::vector<int> layout0_;
    /**
     * checkpoints_[k] = state after the first (k+1)*interval_ gates,
     * in layoutAt((k+1)*interval_).
     */
    std::vector<sim::StateVector> checkpoints_;
    sim::OutcomeCdf clean_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_REPLAY_HPP
