#include "noise/replay.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace hammer::noise {

using common::require;
using common::Rng;
using sim::GateKind;
using sim::KernelKind;
using sim::StateVector;

namespace {

bool
isTwoQubitOp(const sim::CompiledOp &op)
{
    return op.kind == KernelKind::CX || op.kind == KernelKind::CZ ||
           op.kind == KernelKind::Swap;
}

void
applyPauli(StateVector &state, GateKind pauli, int qubit)
{
    switch (pauli) {
      case GateKind::X:
        state.applyX(qubit);
        return;
      case GateKind::Y:
        state.applyY(qubit);
        return;
      case GateKind::Z:
        state.applyPhase(sim::Amp(-1.0), qubit);
        return;
      default:
        break;
    }
    common::panic("ReplayEngine: error event is not a Pauli");
}

void
applyPauliLane(sim::BatchedStateVector &batch, int lane, GateKind pauli,
               int qubit)
{
    switch (pauli) {
      case GateKind::X:
        batch.applyXLane(lane, qubit);
        return;
      case GateKind::Y:
        batch.applyYLane(lane, qubit);
        return;
      case GateKind::Z:
        batch.applyPhaseLane(lane, sim::Amp(-1.0), qubit);
        return;
      default:
        break;
    }
    common::panic("ReplayEngine: error event is not a Pauli");
}

/** A Swap op exchanges two wires' storage bits; false otherwise. */
bool
relabel(std::vector<int> &layout, const sim::CompiledOp &op)
{
    if (op.kind != KernelKind::Swap)
        return false;
    std::swap(layout[static_cast<std::size_t>(op.q0)],
              layout[static_cast<std::size_t>(op.q1)]);
    return true;
}

/**
 * Run source op @p op in bit map @p layout (wire -> storage bit): a
 * Swap only relabels, anything else runs on the mapped bits.
 */
template <typename State>
void
applyMapped(State &state, const sim::CompiledOp &op,
            std::vector<int> &layout)
{
    if (relabel(layout, op))
        return;
    sim::CompiledOp mapped = op;
    mapped.q0 = layout[static_cast<std::size_t>(op.q0)];
    if (op.q1 >= 0)
        mapped.q1 = layout[static_cast<std::size_t>(op.q1)];
    sim::applyOp(state, mapped);
}

/**
 * Checkpoint interval from the memory budget: one dense state is 2^n
 * amplitudes; place as many evenly-spaced checkpoints as fit (never
 * after the last gate — the clean CDF covers that).
 */
std::size_t
checkpointStride(std::size_t gates, int num_qubits,
                 std::size_t budget_bytes)
{
    const std::size_t state_bytes =
        (std::size_t{1} << num_qubits) * sizeof(sim::Amp);
    const std::size_t max_checkpoints =
        std::min(gates > 0 ? gates - 1 : 0, budget_bytes / state_bytes);
    if (max_checkpoints == 0)
        return gates + 1; // no checkpoints: replay from scratch
    return std::max<std::size_t>(
        1, (gates + max_checkpoints) / (max_checkpoints + 1));
}

/**
 * The bit map the circuit's SWAPs take to the identity: walk the ops
 * backwards from the identity, undoing each relabel.
 */
std::vector<int>
startLayout(const sim::CompiledCircuit &ops)
{
    std::vector<int> layout(static_cast<std::size_t>(ops.numQubits()));
    std::iota(layout.begin(), layout.end(), 0);
    for (auto op = ops.ops().rbegin(); op != ops.ops().rend(); ++op)
        relabel(layout, *op);
    return layout;
}

} // namespace

ReplayEngine::ReplayEngine(const sim::Circuit &circuit,
                           const NoiseModel &model,
                           const ReplayOptions &options)
    : model_(model),
      ops_(sim::CompiledCircuit::compile(circuit, {.fuse1q = false})),
      batchLanes_(options.batchLanes),
      interval_(checkpointStride(ops_.ops().size(),
                                 circuit.numQubits(),
                                 options.checkpointBudgetBytes)),
      layout0_(startLayout(ops_)),
      clean_(cleanPass())
{
    require(batchLanes_ >= 1,
            "ReplayEngine: batchLanes must be >= 1");
}

sim::OutcomeCdf
ReplayEngine::cleanPass()
{
    // One clean pass, snapshotting along the way; it ends in wire
    // order, where the CDF is read.
    StateVector state(ops_.numQubits());
    std::vector<int> layout = layout0_;
    const std::size_t gates = ops_.ops().size();
    for (std::size_t i = 0; i < gates; ++i) {
        applyMapped(state, ops_.ops()[i], layout);
        if ((i + 1) % interval_ == 0 && i + 1 < gates)
            checkpoints_.push_back(state);
    }
    return sim::OutcomeCdf(state);
}

std::vector<int>
ReplayEngine::layoutAt(std::size_t gate) const
{
    std::vector<int> layout = layout0_;
    for (std::size_t i = 0; i < gate; ++i)
        relabel(layout, ops_.ops()[i]);
    return layout;
}

std::vector<ErrorEvent>
ReplayEngine::drawErrors(Rng &rng) const
{
    std::vector<ErrorEvent> events;
    const GateKind paulis[] = {GateKind::X, GateKind::Y, GateKind::Z};

    // Draw-for-draw identical to noisyInstance: a Bernoulli per gate
    // (skipped entirely at zero rate), one uniform when it fires.
    const auto &ops = ops_.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const sim::CompiledOp &op = ops[i];
        const auto index = static_cast<std::uint32_t>(i);
        if (isTwoQubitOp(op)) {
            // Two-qubit depolarising channel: one of the 15
            // non-identity two-qubit Paulis, uniformly.
            if (model_.p2q > 0.0 && rng.bernoulli(model_.p2q)) {
                const auto pick =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                const int first = pick / 4; // 0..3 (I,X,Y,Z)
                const int second = pick % 4;
                if (first != 0)
                    events.push_back(
                        {index, paulis[first - 1], op.q0});
                if (second != 0)
                    events.push_back(
                        {index, paulis[second - 1], op.q1});
            }
        } else {
            // Single-qubit depolarising channel.
            if (model_.p1q > 0.0 && rng.bernoulli(model_.p1q)) {
                events.push_back(
                    {index, paulis[rng.uniformInt(3)], op.q0});
            }
        }
    }
    return events;
}

std::size_t
ReplayEngine::replayStart(const std::vector<ErrorEvent> &events) const
{
    const std::size_t gates = ops_.ops().size();
    if (events.empty())
        return gates;
    // The first error fires after gate g, so any prefix of length
    // <= g+1 is still clean; take the deepest stored checkpoint.
    const std::size_t clean_prefix = events.front().gateIndex + 1;
    const std::size_t k =
        std::min(clean_prefix / interval_, checkpoints_.size());
    return k * interval_;
}

StateVector
ReplayEngine::replay(const std::vector<ErrorEvent> &events) const
{
    require(!events.empty(),
            "ReplayEngine::replay: zero-error trajectories are "
            "served by cleanCdf()");
    const std::size_t gates = ops_.ops().size();
    const std::size_t start = replayStart(events);

    StateVector state = start == 0
        ? StateVector(ops_.numQubits())
        : checkpoints_[start / interval_ - 1];
    std::vector<int> layout = layoutAt(start);

    // Errors firing exactly at the checkpoint boundary (after gate
    // start-1, the last gate the checkpoint already covers) are
    // injected before the loop resumes at gate `start`.
    auto event = events.begin();
    while (event != events.end() && event->gateIndex < start) {
        applyPauli(state, event->pauli, layout[event->qubit]);
        ++event;
    }
    for (std::size_t i = start; i < gates; ++i) {
        applyMapped(state, ops_.ops()[i], layout);
        while (event != events.end() && event->gateIndex == i) {
            applyPauli(state, event->pauli, layout[event->qubit]);
            ++event;
        }
    }
    return state;
}

sim::BatchedStateVector
ReplayEngine::replayBatch(
    std::size_t start,
    const std::vector<const std::vector<ErrorEvent> *> &group) const
{
    require(!group.empty() &&
                group.size() <= static_cast<std::size_t>(batchLanes_),
            "ReplayEngine::replayBatch: group size out of range");
    const std::size_t gates = ops_.ops().size();
    const int lanes = static_cast<int>(group.size());

    // Lanes may start at different checkpoints; the batch starts at
    // the earliest and later lanes ride the shared clean prefix.
    std::vector<std::size_t> own(group.size());
    std::size_t earliest = gates;
    for (std::size_t g = 0; g < group.size(); ++g) {
        require(group[g] != nullptr && !group[g]->empty(),
                "ReplayEngine::replayBatch: zero-error trajectories "
                "are served by cleanCdf()");
        own[g] = replayStart(*group[g]);
        require(own[g] >= start,
                "ReplayEngine::replayBatch: trajectory starts before "
                "the batch checkpoint");
        earliest = std::min(earliest, own[g]);
    }
    require(earliest == start,
            "ReplayEngine::replayBatch: batch start must be the "
            "earliest trajectory checkpoint");

    sim::BatchedStateVector batch(ops_.numQubits(), lanes);
    if (start != 0)
        batch.fillFrom(checkpoints_[start / interval_ - 1]);
    std::vector<int> layout = layoutAt(start);

    // Per-lane cursor into that trajectory's ordered event list.
    std::vector<std::size_t> cursor(group.size(), 0);

    for (std::size_t i = start; i < gates; ++i) {
        // A lane reaching its own checkpoint first takes its
        // boundary errors (fired after gate own-1, which its
        // checkpoint already covers), exactly where single-state
        // replay() injects them after the checkpoint copy.  The
        // clean prefix a later lane replayed batched is bit-identical
        // to that copy, by the kernel bit-identity invariant.
        for (int g = 0; g < lanes; ++g) {
            if (own[static_cast<std::size_t>(g)] != i)
                continue;
            const auto &events = *group[g];
            while (cursor[g] < events.size() &&
                   events[cursor[g]].gateIndex < i) {
                applyPauliLane(batch, g, events[cursor[g]].pauli,
                               layout[events[cursor[g]].qubit]);
                ++cursor[g];
            }
        }
        applyMapped(batch, ops_.ops()[i], layout);
        for (int g = 0; g < lanes; ++g) {
            if (i < own[static_cast<std::size_t>(g)])
                continue;
            const auto &events = *group[g];
            while (cursor[g] < events.size() &&
                   events[cursor[g]].gateIndex == i) {
                applyPauliLane(batch, g, events[cursor[g]].pauli,
                               layout[events[cursor[g]].qubit]);
                ++cursor[g];
            }
        }
    }
    return batch;
}

} // namespace hammer::noise
