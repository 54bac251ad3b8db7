/**
 * @file
 * SWAP-insertion router ("transpiler-lite").
 *
 * Stands in for the Qiskit routing pass used by the paper's
 * methodology (Section 5.2): two-qubit gates between physically
 * non-adjacent qubits are preceded by SWAPs along a shortest path.
 * The added SWAPs grow the depth and two-qubit count, which is what
 * couples problem structure (grid vs 3-regular graphs) to fidelity.
 */

#ifndef HAMMER_CIRCUITS_TRANSPILER_HPP
#define HAMMER_CIRCUITS_TRANSPILER_HPP

#include <vector>

#include "circuits/coupling.hpp"
#include "common/bitops.hpp"
#include "sim/circuit.hpp"

namespace hammer::circuits {

/**
 * Result of routing a logical circuit onto a device.
 *
 * The routed circuit acts on physical qubits; logicalToPhysical gives
 * the final residence of each logical qubit so measured outcomes can
 * be permuted back into logical bit order (real systems relabel the
 * classical bits the same way).
 */
struct RoutedCircuit
{
    sim::Circuit circuit;             ///< Physical-qubit circuit.
    std::vector<int> logicalToPhysical; ///< Final layout.
    int addedSwaps = 0;               ///< SWAP gates inserted.

    /** Permute a physical measurement outcome into logical order. */
    common::Bits toLogical(common::Bits physical) const;
};

/**
 * RoutedCircuit::toLogical as a byte-sliced lookup table, for the
 * per-shot paths that relabel thousands of outcomes of one circuit.
 *
 * Entry [b][v] holds the logical bits that physical byte b with value
 * v contributes, so a relabel is one table load and OR per byte of
 * the physical width instead of one test per qubit.  operator()
 * returns exactly what toLogical returns for every outcome.
 */
class OutcomeRelabel
{
  public:
    explicit OutcomeRelabel(const RoutedCircuit &routed);

    common::Bits operator()(common::Bits physical) const
    {
        common::Bits logical = 0;
        for (std::size_t b = 0; b < bytes_; ++b)
            logical |= table_[b * 256 + ((physical >> (8 * b)) & 0xFF)];
        return logical;
    }

    /** Physical bytes relabelled (entries per outcome). */
    std::size_t bytes() const { return bytes_; }

    /** The bytes() x 256 entries, byte-major. */
    const common::Bits *table() const { return table_.data(); }

  private:
    std::size_t bytes_;
    std::vector<common::Bits> table_; ///< bytes_ x 256, byte-major.
};

/**
 * Route @p circuit onto @p coupling with greedy shortest-path SWAP
 * insertion, starting from the identity layout.
 *
 * @pre coupling.numQubits() == circuit.numQubits() and the coupling
 *      graph is connected over the circuit's qubits.
 */
RoutedCircuit transpile(const sim::Circuit &circuit,
                        const CouplingMap &coupling);

/**
 * Route with an explicit initial layout: logical qubit l starts at
 * physical qubit initial_layout[l].  Different layouts steer the
 * same program through different physical qubits and therefore
 * different error profiles — the mechanism exploited by the
 * Ensemble-of-Diverse-Mappings baseline (paper Section 8, ref [42]).
 *
 * @pre initial_layout is a permutation of 0..n-1.
 */
RoutedCircuit transpile(const sim::Circuit &circuit,
                        const CouplingMap &coupling,
                        const std::vector<int> &initial_layout);

/** Wrap an already-executable circuit with an identity layout. */
RoutedCircuit trivialRouting(const sim::Circuit &circuit);

} // namespace hammer::circuits

#endif // HAMMER_CIRCUITS_TRANSPILER_HPP
