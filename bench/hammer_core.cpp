/**
 * @file
 * Data-layer microbenchmark: accumulate -> reconstruct -> score on
 * synthetic clustered supports of growing N, against node-based
 * std::map baselines of the same algorithms.
 *
 * This is the perf trajectory of the flat Hamming-space data layer
 * itself, isolated from circuit simulation: per-shot histogramming
 * into CountAccumulator vs a std::map histogram, HAMMER's O(N^2)
 * pair scans over flat sorted vectors vs a map-backed histogram, and
 * EHD scoring.  A second table times reconstruct() under every
 * HAMMER kernel tier on one fixed histogram: any output that differs
 * from the scalar tier is an error, and outside sanitizer builds the
 * avx512 tier must run at least 1.5x faster than avx2 when the host
 * runs both.  Emits BENCH_core.json in smoke mode so CI tracks the
 * speedups push over push.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/distribution.hpp"
#include "core/ehd.hpp"
#include "core/hammer.hpp"
#include "core/hammer_kernels.hpp"
#include "core/spectrum.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

namespace {

using namespace hammer;
using common::Bits;
using core::Distribution;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * Synthetic NISQ-shaped support: N distinct outcomes clustered
 * around an all-ones key, probability decaying with distance (the
 * histogram shape HAMMER targets).
 */
Distribution
clusteredSupport(int num_bits, std::size_t support, common::Rng &rng)
{
    const Bits key = (Bits{1} << num_bits) - 1;
    std::set<Bits> outcomes{key};
    while (outcomes.size() < support) {
        Bits flips = 0;
        const int weight = 1 + static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(num_bits) / 2));
        for (int f = 0; f < weight; ++f)
            flips |= Bits{1} << rng.uniformInt(
                static_cast<std::uint64_t>(num_bits));
        outcomes.insert(key ^ flips);
    }
    std::vector<core::Entry> entries;
    entries.reserve(outcomes.size());
    for (const Bits x : outcomes) {
        const int d = common::hammingDistance(x, key);
        entries.push_back(
            {x, (0.5 + rng.uniform()) * std::exp(-0.6 * d)});
    }
    Distribution dist =
        Distribution::fromSorted(num_bits, std::move(entries));
    dist.normalize();
    return dist;
}

/** std::map histogram baseline for the accumulate phase. */
std::map<Bits, std::uint64_t>
mapAccumulate(const std::vector<Bits> &shots, int workers)
{
    // Same worker partition as the flat path, merged linearly.
    std::vector<std::map<Bits, std::uint64_t>> partials(
        static_cast<std::size_t>(workers));
    for (std::size_t s = 0; s < shots.size(); ++s)
        ++partials[s % static_cast<std::size_t>(workers)][shots[s]];
    std::map<Bits, std::uint64_t> merged;
    for (const auto &partial : partials) {
        for (const auto &[outcome, count] : partial)
            merged[outcome] += count;
    }
    return merged;
}

/**
 * The seed's reconstruction algorithm on a node-based histogram: the
 * same Algorithm 1 arithmetic, but every pair scan walks a
 * std::map<Bits, double> — the storage the flat data layer replaced.
 */
Distribution
mapReconstruct(const Distribution &input)
{
    const int n = input.numBits();
    const int dmax = core::defaultMaxDistance(n);
    std::map<Bits, double> hist;
    for (const auto &e : input.entries())
        hist.emplace(e.outcome, e.probability);

    std::vector<double> chs(static_cast<std::size_t>(dmax) + 1, 0.0);
    for (const auto &[x, px] : hist) {
        chs[0] += px;
        for (const auto &[y, py] : hist) {
            if (y == x)
                continue;
            const int d = common::hammingDistance(x, y);
            if (d <= dmax)
                chs[static_cast<std::size_t>(d)] += py;
        }
    }
    std::vector<double> weights(chs.size(), 0.0);
    for (std::size_t d = 0; d < chs.size(); ++d) {
        if (chs[d] > 0.0)
            weights[d] = 1.0 / chs[d];
    }

    std::map<Bits, double> rescored;
    for (const auto &[x, px] : hist) {
        double score = px;
        for (const auto &[y, py] : hist) {
            if (y == x)
                continue;
            const int d = common::hammingDistance(x, y);
            if (d > dmax || !(px > py))
                continue;
            score += weights[static_cast<std::size_t>(d)] * py;
        }
        rescored[x] = score * px;
    }

    Distribution out(n);
    for (const auto &[x, p] : rescored)
        out.set(x, p);
    out.normalize();
    return out;
}

bool
sameBits(const Distribution &a, const Distribution &b)
{
    if (a.support() != b.support())
        return false;
    for (std::size_t i = 0; i < a.support(); ++i) {
        if (a.entries()[i].outcome != b.entries()[i].outcome ||
            a.entries()[i].probability != b.entries()[i].probability)
            return false;
    }
    return true;
}

/**
 * Single-thread reconstruct() under every supported tier that has
 * HAMMER kernels of its own, on one fixed 13-bit histogram of 2048
 * outcomes.  Returns false on a failed check or gate.
 */
bool
benchKernelTiers(bench::BenchReport &report, common::Rng &rng)
{
    constexpr double kAvx512OverAvx2Floor = 1.5;
    const Distribution dist = clusteredSupport(13, 2048, rng);
    core::HammerConfig serial;
    serial.threads = 1;

    std::map<common::KernelTier, double> secs;
    Distribution reference(dist.numBits());
    bool identical = true;
    common::Table table({"tier", "rec_ms", "x_scalar"});
    for (const common::KernelTier tier : common::supportedTiers()) {
        const core::HammerKernels *kernels =
            core::hammerKernelsForTier(tier);
        if (kernels->tier != tier)
            continue; // runs a lower tier's kernels, timed there
        core::setActiveHammerKernels(kernels);
        // Best-of-5: the avx512 floor gates on these numbers.
        double best = -1.0;
        Distribution out(dist.numBits());
        for (int pass = 0; pass < 5; ++pass) {
            const auto start = std::chrono::steady_clock::now();
            out = core::reconstruct(dist, serial);
            const double t = secondsSince(start);
            if (best < 0.0 || t < best)
                best = t;
        }
        core::setActiveHammerKernels(nullptr);
        secs[tier] = best;
        if (tier == common::KernelTier::Scalar) {
            reference = std::move(out);
        } else if (!sameBits(out, reference)) {
            std::printf("ERROR: reconstruct under the %s tier differs "
                        "from the scalar tier\n",
                        common::tierName(tier));
            identical = false;
        }
        const double x = secs[common::KernelTier::Scalar] / best;
        table.addRow({common::tierName(tier),
                      common::Table::fmt(best * 1e3, 2),
                      common::Table::fmt(x, 2)});
        report.metric(std::string("reconstruct_s_") +
                          common::tierName(tier),
                      best);
        report.metric(std::string("reconstruct_x_scalar_") +
                          common::tierName(tier),
                      x);
    }
    std::printf("\nreconstruct per HAMMER kernel tier (N=%zu, %d bits, "
                "1 thread):\n",
                dist.support(), dist.numBits());
    table.print(std::cout);
    if (!identical)
        return false;

    const auto avx2 = secs.find(common::KernelTier::Avx2);
    const auto avx512 = secs.find(common::KernelTier::Avx512);
    if (avx2 == secs.end() || avx512 == secs.end())
        return true;
    const double x = avx2->second / avx512->second;
    report.metric("reconstruct_x_avx512_over_avx2", x);
    if (HAMMER_BENCH_SANITIZED) {
        std::puts("note: sanitizer build — avx512 floor disabled");
    } else if (x < kAvx512OverAvx2Floor) {
        std::printf("ERROR: avx512 reconstruct is only %.2fx avx2 "
                    "(floor %.1fx)\n",
                    x, kAvx512OverAvx2Floor);
        return false;
    }
    return true;
}

} // namespace

int
main()
{
    std::puts("== Data layer: flat vs map, accumulate -> reconstruct "
              "-> score ==");
    bench::BenchReport report("core");
    common::Rng rng(0xC03E);

    const int num_bits = 16;
    const Bits key = (Bits{1} << num_bits) - 1;
    const bool smoke = bench::smokeMode();
    const std::vector<std::size_t> supports =
        smoke ? std::vector<std::size_t>{256, 512}
              : std::vector<std::size_t>{512, 1024, 2048, 4096};
    const std::size_t shots = smoke ? 50000 : 400000;
    constexpr int kWorkers = 4;

    common::Table table({"N", "acc_flat_ms", "acc_map_ms", "acc_x",
                         "rec_flat_ms", "rec_fast_ms", "rec_map_ms",
                         "rec_x", "score_ms"});

    for (const std::size_t support : supports) {
        const Distribution dist =
            clusteredSupport(num_bits, support, rng);

        // Shot stream: uniform draws over the support, fixed per N.
        std::vector<Bits> stream(shots);
        for (Bits &shot : stream)
            shot = dist.entries()[rng.uniformInt(support)].outcome;

        // -- Accumulate: flat CountAccumulator + treeReduce vs map.
        auto start = std::chrono::steady_clock::now();
        std::vector<core::CountAccumulator> partials(kWorkers);
        for (std::size_t s = 0; s < stream.size(); ++s)
            partials[s % kWorkers].add(stream[s]);
        const core::CountAccumulator flat_counts =
            core::CountAccumulator::treeReduce(partials);
        const double acc_flat = secondsSince(start);

        start = std::chrono::steady_clock::now();
        const auto map_counts = mapAccumulate(stream, kWorkers);
        const double acc_map = secondsSince(start);

        if (map_counts.size() != flat_counts.counts().size()) {
            std::puts("ERROR: flat and map histograms disagree");
            return 1;
        }

        // -- Reconstruct: flat (exhaustive + banded) vs map-backed.
        core::HammerConfig serial;
        serial.threads = 1;
        start = std::chrono::steady_clock::now();
        const Distribution rec_flat = core::reconstruct(dist, serial);
        const double t_rec_flat = secondsSince(start);

        start = std::chrono::steady_clock::now();
        const Distribution rec_fast =
            core::reconstructFast(dist, serial);
        const double t_rec_fast = secondsSince(start);

        start = std::chrono::steady_clock::now();
        const Distribution rec_map = mapReconstruct(dist);
        const double t_rec_map = secondsSince(start);

        double max_diff = 0.0;
        for (const auto &e : rec_flat.entries())
            max_diff = std::max(
                max_diff,
                std::abs(e.probability -
                         rec_map.probability(e.outcome)));
        if (max_diff > 1e-9) {
            std::printf("ERROR: flat/map reconstruction diverged "
                        "(max diff %.3g)\n", max_diff);
            return 1;
        }

        // -- Score.
        start = std::chrono::steady_clock::now();
        const double ehd =
            core::expectedHammingDistance(rec_flat, {key});
        const double t_score = secondsSince(start);

        const double acc_speedup = acc_flat > 0.0 ? acc_map / acc_flat
                                                  : 0.0;
        const double rec_speedup =
            t_rec_flat > 0.0 ? t_rec_map / t_rec_flat : 0.0;
        table.addRow(
            {common::Table::fmt(static_cast<long long>(support)),
             common::Table::fmt(acc_flat * 1e3, 2),
             common::Table::fmt(acc_map * 1e3, 2),
             common::Table::fmt(acc_speedup, 2),
             common::Table::fmt(t_rec_flat * 1e3, 2),
             common::Table::fmt(t_rec_fast * 1e3, 2),
             common::Table::fmt(t_rec_map * 1e3, 2),
             common::Table::fmt(rec_speedup, 2),
             common::Table::fmt(t_score * 1e3, 3)});

        const std::string tag = "_n" + std::to_string(support);
        report.metric("accumulate_flat_s" + tag, acc_flat);
        report.metric("accumulate_map_s" + tag, acc_map);
        report.metric("speedup_accumulate" + tag, acc_speedup);
        report.metric("reconstruct_flat_s" + tag, t_rec_flat);
        report.metric("reconstruct_fast_s" + tag, t_rec_fast);
        report.metric("reconstruct_map_s" + tag, t_rec_map);
        report.metric("speedup_reconstruct" + tag, rec_speedup);
        report.metric("score_s" + tag, t_score);
        report.metric("ehd" + tag, ehd);
    }

    table.print(std::cout);
    std::puts("\nflat vs map: same histograms, same reconstruction, "
              "map-based baseline pays node allocation + pointer "
              "chasing on every hot-path scan");
    return benchKernelTiers(report, rng) ? 0 : 1;
}
