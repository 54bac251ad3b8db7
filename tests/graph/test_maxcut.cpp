/**
 * @file
 * Unit tests for the Ising max-cut cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using namespace hammer::graph;

TEST(Maxcut, IsingCostOfTriangle)
{
    // Unweighted triangle: best cut crosses 2 edges -> cost -1;
    // uncut assignment has cost +3.
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    EXPECT_DOUBLE_EQ(isingCost(g, 0b000), 3.0);
    EXPECT_DOUBLE_EQ(isingCost(g, 0b001), -1.0);
    EXPECT_DOUBLE_EQ(isingCost(g, 0b011), -1.0);
}

TEST(Maxcut, CutWeightComplementInvariant)
{
    Rng rng(1);
    const Graph g = erdosRenyi(8, 0.5, rng);
    const Bits mask = (Bits{1} << 8) - 1;
    for (Bits x : {Bits{0b10110010}, Bits{0b00000001}, Bits{0b1111}}) {
        EXPECT_DOUBLE_EQ(cutWeight(g, x), cutWeight(g, x ^ mask))
            << "cut weight must be invariant under complement";
    }
}

TEST(Maxcut, IsingCostRelatesToCutWeight)
{
    // C(x) = totalWeight - 2 * cutWeight(x) for +/-1 spins.
    Rng rng(2);
    const Graph g = erdosRenyi(7, 0.4, rng);
    for (Bits x = 0; x < 32; ++x) {
        EXPECT_NEAR(isingCost(g, x),
                    g.totalWeight() - 2.0 * cutWeight(g, x), 1e-12);
    }
}

TEST(Maxcut, BruteForceFindsRingOptimum)
{
    // Even ring is bipartite: every edge can be cut, so the optimum
    // Ising cost is -numEdges.
    const Graph g = ring(6);
    const CutOptimum opt = bruteForceOptimum(g);
    EXPECT_DOUBLE_EQ(opt.minCost, -6.0);
    EXPECT_DOUBLE_EQ(opt.maxCost, 6.0);
    // The alternating assignments 010101 and 101010 must be optimal.
    const auto &cuts = opt.bestCuts;
    EXPECT_NE(std::find(cuts.begin(), cuts.end(), Bits{0b010101}),
              cuts.end());
    EXPECT_NE(std::find(cuts.begin(), cuts.end(), Bits{0b101010}),
              cuts.end());
}

TEST(Maxcut, BestCutsComeInComplementPairs)
{
    Rng rng(3);
    const Graph g = erdosRenyi(6, 0.6, rng);
    const CutOptimum opt = bruteForceOptimum(g);
    const Bits mask = (Bits{1} << 6) - 1;
    for (Bits cut : opt.bestCuts) {
        EXPECT_NE(std::find(opt.bestCuts.begin(), opt.bestCuts.end(),
                            cut ^ mask),
                  opt.bestCuts.end())
            << "complement of an optimal cut must be optimal";
    }
}

TEST(Maxcut, BestCutsActuallyOptimal)
{
    Rng rng(4);
    const Graph g = kRegular(8, 3, rng);
    const CutOptimum opt = bruteForceOptimum(g);
    ASSERT_FALSE(opt.bestCuts.empty());
    for (Bits cut : opt.bestCuts)
        EXPECT_NEAR(isingCost(g, cut), opt.minCost, 1e-9);
    // And no assignment beats them.
    for (Bits x = 0; x < (Bits{1} << 8); ++x)
        EXPECT_GE(isingCost(g, x), opt.minCost - 1e-9);
}

TEST(Maxcut, OddRingIsFrustrated)
{
    // An odd ring cannot cut all edges: optimum cuts n-1 of them.
    const Graph g = ring(5);
    const CutOptimum opt = bruteForceOptimum(g);
    EXPECT_DOUBLE_EQ(opt.minCost, -3.0); // 4 cut - 1 uncut
}

TEST(Maxcut, WeightedEdgesRespected)
{
    Graph g(2);
    g.addEdge(0, 1, -2.0);
    // Negative weight: cutting the edge *raises* the cost.
    EXPECT_DOUBLE_EQ(isingCost(g, 0b00), -2.0);
    EXPECT_DOUBLE_EQ(isingCost(g, 0b01), 2.0);
    const CutOptimum opt = bruteForceOptimum(g);
    EXPECT_DOUBLE_EQ(opt.minCost, -2.0);
}

TEST(Maxcut, BruteForceRejectsHugeInstances)
{
    EXPECT_THROW(bruteForceOptimum(Graph(27)), std::invalid_argument);
}

/** The textbook scan: isingCost of every cut, twice. */
CutOptimum
naiveOptimum(const Graph &g, double tol)
{
    CutOptimum opt{std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   {}};
    const Bits count = Bits{1} << g.numVertices();
    for (Bits x = 0; x < count; ++x) {
        opt.minCost = std::min(opt.minCost, isingCost(g, x));
        opt.maxCost = std::max(opt.maxCost, isingCost(g, x));
    }
    for (Bits x = 0; x < count; ++x) {
        if (isingCost(g, x) <= opt.minCost + tol)
            opt.bestCuts.push_back(x);
    }
    return opt;
}

TEST(Maxcut, BruteForceEqualsTheNaiveScanExactly)
{
    // Non-dyadic and negative weights make every cost a rounded sum,
    // so equality holds only if each cut sums its edges in the same
    // order; the wide tolerances admit near-optimal ties.
    Rng rng(5);
    for (int n = 4; n <= 16; ++n) {
        Graph g(n);
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.bernoulli(0.45))
                    g.addEdge(u, v, rng.uniform(-0.7, 1.3) / 3.0);
            }
        }
        for (double tol : {1e-9, 0.05, 0.4}) {
            const CutOptimum fast = bruteForceOptimum(g, tol);
            const CutOptimum naive = naiveOptimum(g, tol);
            EXPECT_EQ(fast.minCost, naive.minCost) << "n " << n;
            EXPECT_EQ(fast.maxCost, naive.maxCost) << "n " << n;
            EXPECT_EQ(fast.bestCuts, naive.bestCuts)
                << "n " << n << " tol " << tol;
        }
    }
}

TEST(Maxcut, BruteForceKeepsExactTiesOfEqualWeights)
{
    // Equal thirds: many cuts tie exactly at the optimum.
    Rng rng(6);
    Graph g = kRegular(12, 3, rng);
    Graph thirds(12);
    for (const Edge &e : g.edges())
        thirds.addEdge(e.u, e.v, 1.0 / 3.0);
    const CutOptimum fast = bruteForceOptimum(thirds);
    EXPECT_EQ(fast.bestCuts, naiveOptimum(thirds, 1e-9).bestCuts);
    EXPECT_GE(fast.bestCuts.size(), 2u);
}

} // namespace
