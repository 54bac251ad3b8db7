#include "graph/maxcut.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace hammer::graph {

using common::Bits;

double
isingCost(const Graph &g, Bits x)
{
    double cost = 0.0;
    for (const Edge &e : g.edges()) {
        const double zu = ((x >> e.u) & 1ull) ? -1.0 : 1.0;
        const double zv = ((x >> e.v) & 1ull) ? -1.0 : 1.0;
        cost += e.weight * zu * zv;
    }
    return cost;
}

double
cutWeight(const Graph &g, Bits x)
{
    double weight = 0.0;
    for (const Edge &e : g.edges()) {
        const bool bu = (x >> e.u) & 1ull;
        const bool bv = (x >> e.v) & 1ull;
        if (bu != bv)
            weight += e.weight;
    }
    return weight;
}

CutOptimum
bruteForceOptimum(const Graph &g, double tol)
{
    const int n = g.numVertices();
    common::require(n <= 26,
                    "bruteForceOptimum: instance too large for 2^n scan");

    CutOptimum opt;
    opt.minCost = std::numeric_limits<double>::infinity();
    opt.maxCost = -std::numeric_limits<double>::infinity();

    // Edge-major over blocks of cuts: each edge adds +-w to every
    // cut of the block in one branch-free pass.  Every cut still sums
    // its edges in edge order from 0.0, and w * zu * zv is exactly
    // +-w, so each cost equals isingCost's bit for bit.  Candidates
    // within tol of the running minimum are kept and re-filtered
    // against the final minimum, which never exceeds it.
    constexpr Bits kBlock = Bits{1} << 12;
    const Bits count = Bits{1} << n;
    const Bits block = std::min(count, kBlock);
    std::vector<double> cost(block);
    std::vector<std::pair<Bits, double>> candidates;
    for (Bits base = 0; base < count; base += block) {
        std::fill(cost.begin(), cost.end(), 0.0);
        for (const Edge &e : g.edges()) {
            for (Bits i = 0; i < block; ++i) {
                const Bits x = base + i;
                const bool odd = ((x >> e.u) ^ (x >> e.v)) & 1ull;
                cost[i] += odd ? -e.weight : e.weight;
            }
        }
        for (Bits i = 0; i < block; ++i) {
            opt.minCost = std::min(opt.minCost, cost[i]);
            opt.maxCost = std::max(opt.maxCost, cost[i]);
        }
        for (Bits i = 0; i < block; ++i) {
            if (cost[i] <= opt.minCost + tol)
                candidates.emplace_back(base + i, cost[i]);
        }
    }
    for (const auto &[x, c] : candidates) {
        if (c <= opt.minCost + tol)
            opt.bestCuts.push_back(x);
    }
    return opt;
}

} // namespace hammer::graph
