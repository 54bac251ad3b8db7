/**
 * @file
 * Unit tests for the SWAP-insertion router: routed circuits must
 * respect connectivity and preserve circuit semantics up to the
 * output permutation.
 */

#include <gtest/gtest.h>

#include "circuits/bv.hpp"
#include "circuits/coupling.hpp"
#include "circuits/ghz.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "circuits/transpiler.hpp"
#include "graph/generators.hpp"
#include "sim/simulator.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using namespace hammer::circuits;
using hammer::sim::Circuit;
using hammer::sim::Gate;

/** Every two-qubit gate in the routed circuit must be on an edge. */
void
expectRespectConnectivity(const RoutedCircuit &routed,
                          const CouplingMap &map)
{
    for (const Gate &g : routed.circuit.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(map.connected(g.q0, g.q1))
                << g.toString() << " violates the coupling map";
        }
    }
}

TEST(Transpiler, NoSwapsWhenCircuitFitsTheMap)
{
    const Circuit c = ghz(5); // nearest-neighbour chain
    const CouplingMap map = CouplingMap::line(5);
    const RoutedCircuit routed = transpile(c, map);
    EXPECT_EQ(routed.addedSwaps, 0);
    EXPECT_EQ(routed.circuit.size(), c.size());
}

TEST(Transpiler, InsertsSwapsForDistantPairs)
{
    Circuit c(4);
    c.cx(0, 3);
    const CouplingMap map = CouplingMap::line(4);
    const RoutedCircuit routed = transpile(c, map);
    EXPECT_GT(routed.addedSwaps, 0);
    expectRespectConnectivity(routed, map);
}

TEST(Transpiler, RoutedBvPreservesSemantics)
{
    // Routing must not change the measured logical outcome.
    const Bits key = 0b10110;
    const Circuit c = bernsteinVazirani(5, key);
    const CouplingMap map = CouplingMap::line(6);
    const RoutedCircuit routed = transpile(c, map);
    expectRespectConnectivity(routed, map);

    const auto state = hammer::sim::runCircuit(routed.circuit);
    // Find the physical outcome with probability ~1 and map it back.
    double best_p = 0.0;
    Bits best = 0;
    for (Bits x = 0; x < state.dimension(); ++x) {
        if (state.probability(x) > best_p) {
            best_p = state.probability(x);
            best = x;
        }
    }
    EXPECT_NEAR(best_p, 1.0, 1e-9);
    EXPECT_EQ(routed.toLogical(best) & 0b11111, key);
}

TEST(Transpiler, RoutedQaoaPreservesIdealDistribution)
{
    Rng rng(5);
    const auto g = hammer::graph::kRegular(6, 3, rng);
    const auto c = qaoaCircuit(g, linearRampParams(1));
    const CouplingMap map = CouplingMap::line(6);
    const RoutedCircuit routed = transpile(c, map);
    expectRespectConnectivity(routed, map);

    const auto ideal = hammer::sim::runCircuit(c);
    const auto routed_state = hammer::sim::runCircuit(routed.circuit);
    for (Bits logical = 0; logical < 64; ++logical) {
        // Find the physical index whose logical relabelling is x.
        double routed_p = 0.0;
        for (Bits phys = 0; phys < 64; ++phys) {
            if (routed.toLogical(phys) == logical)
                routed_p += routed_state.probability(phys);
        }
        EXPECT_NEAR(routed_p, ideal.probability(logical), 1e-9)
            << "logical outcome " << logical;
    }
}

TEST(Transpiler, GridGraphOnMatchingGridNeedsNoSwaps)
{
    // The paper's grid-QAOA observation: hardware-native problems
    // route without SWAPs.
    const auto g = hammer::graph::grid(2, 3);
    const auto c = qaoaCircuit(g, linearRampParams(1));
    const CouplingMap map = CouplingMap::grid(2, 3);
    const RoutedCircuit routed = transpile(c, map);
    EXPECT_EQ(routed.addedSwaps, 0);
}

TEST(Transpiler, DenseGraphOnLineNeedsManySwaps)
{
    Rng rng(7);
    const auto g = hammer::graph::kRegular(8, 3, rng);
    const auto c = qaoaCircuit(g, linearRampParams(1));
    const RoutedCircuit routed = transpile(c, CouplingMap::line(8));
    EXPECT_GT(routed.addedSwaps, 4);
    EXPECT_GT(routed.circuit.depth(), c.depth());
}

TEST(Transpiler, TrivialRoutingIsIdentity)
{
    const Circuit c = ghz(4);
    const RoutedCircuit routed = trivialRouting(c);
    EXPECT_EQ(routed.addedSwaps, 0);
    EXPECT_EQ(routed.circuit.size(), c.size());
    for (int q = 0; q < 4; ++q)
        EXPECT_EQ(routed.logicalToPhysical[q], q);
    EXPECT_EQ(routed.toLogical(0b1010), Bits{0b1010});
}

TEST(Transpiler, ToLogicalPermutesBits)
{
    RoutedCircuit routed = trivialRouting(ghz(3));
    routed.logicalToPhysical = {2, 0, 1};
    // Logical q0 lives at phys 2, q1 at phys 0, q2 at phys 1.
    // Physical outcome 0b100 -> logical bit0 set.
    EXPECT_EQ(routed.toLogical(0b100), Bits{0b001});
    EXPECT_EQ(routed.toLogical(0b001), Bits{0b010});
    EXPECT_EQ(routed.toLogical(0b010), Bits{0b100});
}

TEST(Transpiler, InitialLayoutPlacesLogicalQubits)
{
    // With layout {2, 0, 1} logical q0 starts at physical 2.
    Circuit c(3);
    c.h(0);
    const CouplingMap map = CouplingMap::full(3);
    const RoutedCircuit routed = transpile(c, map, {2, 0, 1});
    ASSERT_EQ(routed.circuit.size(), 1u);
    EXPECT_EQ(routed.circuit.gates()[0].q0, 2);
    EXPECT_EQ(routed.logicalToPhysical[0], 2);
}

TEST(Transpiler, InitialLayoutPreservesSemantics)
{
    const Bits key = 0b1101;
    const Circuit c = bernsteinVazirani(4, key);
    const CouplingMap map = CouplingMap::line(5);
    const RoutedCircuit routed = transpile(c, map, {4, 2, 0, 1, 3});
    expectRespectConnectivity(routed, map);
    const auto state = hammer::sim::runCircuit(routed.circuit);
    double recovered = 0.0;
    for (Bits phys = 0; phys < state.dimension(); ++phys) {
        if ((routed.toLogical(phys) & 0b1111) == key)
            recovered += state.probability(phys);
    }
    EXPECT_NEAR(recovered, 1.0, 1e-9);
}

TEST(Transpiler, InitialLayoutChangesRoutingCost)
{
    // A layout that separates interacting qubits forces more SWAPs.
    Circuit c(4);
    c.cx(0, 1);
    const CouplingMap map = CouplingMap::line(4);
    const RoutedCircuit near = transpile(c, map, {0, 1, 2, 3});
    const RoutedCircuit far = transpile(c, map, {0, 3, 1, 2});
    EXPECT_EQ(near.addedSwaps, 0);
    EXPECT_GT(far.addedSwaps, 0);
}

TEST(Transpiler, RejectsNonPermutationLayout)
{
    Circuit c(3);
    const CouplingMap map = CouplingMap::full(3);
    EXPECT_THROW(transpile(c, map, {0, 0, 1}), std::invalid_argument);
    EXPECT_THROW(transpile(c, map, {0, 1}), std::invalid_argument);
    EXPECT_THROW(transpile(c, map, {0, 1, 3}), std::invalid_argument);
}

TEST(Transpiler, RejectsSizeMismatch)
{
    EXPECT_THROW(transpile(ghz(4), CouplingMap::line(5)),
                 std::invalid_argument);
}

TEST(Transpiler, RejectsDisconnectedDevice)
{
    Circuit c(4);
    c.cx(0, 3);
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 3);
    EXPECT_THROW(transpile(c, map), std::invalid_argument);
}

TEST(Transpiler, OutcomeRelabelMatchesToLogical)
{
    // Random layouts of every byte count, then a SWAP-routed circuit;
    // physical words carry stray bits above the width, which both
    // forms must ignore.
    Rng rng(17);
    for (int n : {1, 7, 8, 9, 16, 23, 40, 64}) {
        RoutedCircuit routed{Circuit(1), {}, 0};
        routed.logicalToPhysical.resize(static_cast<std::size_t>(n));
        for (int l = 0; l < n; ++l)
            routed.logicalToPhysical[static_cast<std::size_t>(l)] = l;
        for (int l = n - 1; l > 0; --l) {
            std::swap(routed.logicalToPhysical[static_cast<std::size_t>(l)],
                      routed.logicalToPhysical[rng.uniformInt(
                          static_cast<std::uint64_t>(l) + 1)]);
        }
        const OutcomeRelabel relabel(routed);
        for (int s = 0; s < 500; ++s) {
            const Bits physical = rng();
            EXPECT_EQ(relabel(physical), routed.toLogical(physical))
                << "n " << n;
        }
    }

    Rng graph_rng(3);
    const auto routed =
        transpile(qaoaCircuit(hammer::graph::kRegular(12, 3, graph_rng),
                              linearRampParams(1)),
                  CouplingMap::line(12));
    ASSERT_GT(routed.addedSwaps, 0);
    const OutcomeRelabel relabel(routed);
    for (Bits physical = 0; physical < (Bits{1} << 12); ++physical)
        EXPECT_EQ(relabel(physical), routed.toLogical(physical));
}

} // namespace
