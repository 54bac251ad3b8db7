#include "circuits/transpiler.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace hammer::circuits {

using common::Bits;
using common::require;
using sim::Circuit;
using sim::Gate;

Bits
RoutedCircuit::toLogical(Bits physical) const
{
    Bits logical = 0;
    for (std::size_t q = 0; q < logicalToPhysical.size(); ++q) {
        if ((physical >> logicalToPhysical[q]) & 1ull)
            logical |= Bits{1} << q;
    }
    return logical;
}

OutcomeRelabel::OutcomeRelabel(const RoutedCircuit &routed)
{
    int width = 0;
    for (int p : routed.logicalToPhysical)
        width = std::max(width, p + 1);
    bytes_ = static_cast<std::size_t>((width + 7) / 8);
    table_.assign(bytes_ * 256, 0);
    for (std::size_t l = 0; l < routed.logicalToPhysical.size(); ++l) {
        const auto p =
            static_cast<std::size_t>(routed.logicalToPhysical[l]);
        const std::size_t byte = p / 8;
        const Bits in_byte = Bits{1} << (p % 8);
        for (Bits v = 0; v < 256; ++v) {
            if (v & in_byte)
                table_[byte * 256 + v] |= Bits{1} << l;
        }
    }
}

RoutedCircuit
transpile(const Circuit &circuit, const CouplingMap &coupling)
{
    std::vector<int> identity(
        static_cast<std::size_t>(circuit.numQubits()));
    std::iota(identity.begin(), identity.end(), 0);
    return transpile(circuit, coupling, identity);
}

RoutedCircuit
transpile(const Circuit &circuit, const CouplingMap &coupling,
          const std::vector<int> &initial_layout)
{
    const int n = circuit.numQubits();
    require(coupling.numQubits() == n,
            "transpile: coupling map size must match circuit width");
    require(initial_layout.size() == static_cast<std::size_t>(n),
            "transpile: initial layout size mismatch");
    {
        std::vector<bool> seen(static_cast<std::size_t>(n), false);
        for (int p : initial_layout) {
            require(p >= 0 && p < n &&
                    !seen[static_cast<std::size_t>(p)],
                    "transpile: initial layout is not a permutation");
            seen[static_cast<std::size_t>(p)] = true;
        }
    }

    // layout[l] = physical home of logical qubit l.
    std::vector<int> layout = initial_layout;

    RoutedCircuit routed{Circuit(n), {}, 0};

    for (const Gate &g : circuit.gates()) {
        if (!g.isTwoQubit()) {
            Gate mapped = g;
            mapped.q0 = layout[static_cast<std::size_t>(g.q0)];
            routed.circuit.append(mapped);
            continue;
        }

        int pa = layout[static_cast<std::size_t>(g.q0)];
        const int pb = layout[static_cast<std::size_t>(g.q1)];
        if (!coupling.connected(pa, pb)) {
            const auto path = coupling.shortestPath(pa, pb);
            require(path.size() >= 2,
                    "transpile: physical qubits are disconnected");
            // Walk logical qubit a down the path until it neighbours
            // b's home, swapping the residents as we go.
            for (std::size_t step = 0; step + 2 < path.size(); ++step) {
                const int from = path[step];
                const int to = path[step + 1];
                routed.circuit.swap(from, to);
                ++routed.addedSwaps;
                // Update the layout of whichever logical qubits live
                // in the two swapped homes.
                for (auto &home : layout) {
                    if (home == from)
                        home = to;
                    else if (home == to)
                        home = from;
                }
            }
            pa = layout[static_cast<std::size_t>(g.q0)];
        }

        Gate mapped = g;
        mapped.q0 = pa;
        mapped.q1 = layout[static_cast<std::size_t>(g.q1)];
        routed.circuit.append(mapped);
    }

    routed.logicalToPhysical = layout;
    return routed;
}

RoutedCircuit
trivialRouting(const Circuit &circuit)
{
    RoutedCircuit routed{circuit, {}, 0};
    routed.logicalToPhysical.resize(
        static_cast<std::size_t>(circuit.numQubits()));
    std::iota(routed.logicalToPhysical.begin(),
              routed.logicalToPhysical.end(), 0);
    return routed;
}

} // namespace hammer::circuits
