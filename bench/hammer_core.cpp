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
 * runs both.  A third table times Step 1 alone by both algorithms —
 * the pair scan on every tier and the Hamming-layer DP — on clustered
 * 12-14 bit supports: any row whose counts differ from the scalar
 * scan's is an error, and outside sanitizer builds the DP must run
 * at least 3x faster than the avx512 scan at 14 bits and 6000
 * outcomes.  A fourth table times Step 3 alone on one shot-quantized
 * 13-bit histogram, every row against the whole support against
 * scoreSupport's probability-ranked runs, per tier: any score that
 * differs from the scalar full run is an error, the ranked runs may
 * score at most half of N^2 lane-pairs, and outside sanitizer builds
 * they must be at least 1.5x faster on every tier.
 * Emits BENCH_core.json in smoke mode so CI tracks the speedups push
 * over push.
 */

#include <algorithm>
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

/** Row i's Step-1 counts, bins 0..dmax, row-major. */
using RowCounts = std::vector<std::uint64_t>;

/** Step 1 by the pair scan: every row's countDistances over all. */
RowCounts
scanCounts(const core::HammerKernels &kernels,
           const std::vector<Bits> &outcomes, std::size_t bins)
{
    RowCounts counts(outcomes.size() * bins);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        kernels.countDistances(outcomes[i], outcomes.data(),
                               outcomes.size(), bins,
                               counts.data() + i * bins);
    return counts;
}

/** Step 1 by the DP: countLayers, then every row read off the planes. */
RowCounts
layerCounts(const core::HammerKernels &kernels,
            const std::vector<Bits> &outcomes, int num_bits,
            std::size_t bins, std::vector<std::uint16_t> &planes)
{
    planes.resize(core::layerPlaneBytes(num_bits, bins) /
                  sizeof(std::uint16_t));
    kernels.countLayers(outcomes.data(), outcomes.size(), num_bits, bins,
                        planes.data());
    RowCounts counts(outcomes.size() * bins);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        for (std::size_t d = 0; d < bins; ++d)
            counts[i * bins + d] = planes[(d << num_bits) + outcomes[i]];
    }
    return counts;
}

/**
 * Step 1 alone, single thread, at HAMMER's default radius: the pair
 * scan under every tier with kernels of its own, and the DP under the
 * same tiers, on clustered supports at 12-14 bits.  Every row's counts
 * must equal the scalar scan's.  Returns false on a failed check or
 * gate.
 */
bool
benchStep1(bench::BenchReport &report, common::Rng &rng)
{
    constexpr double kLayersOverAvx512ScanFloor = 3.0;
    // A clustered n-bit support holds at most the strings within n/2
    // of its key, so 6000 outcomes need 14 bits.
    const std::vector<std::pair<int, std::size_t>> shapes = {
        {12, 800}, {12, 2048}, {13, 800}, {13, 2048},
        {14, 800}, {14, 2048}, {14, 6000}};
    bool ok = true;
    double gate_scan = 0.0;
    double gate_layers = 0.0;
    common::Table table(
        {"bits", "N", "path", "step1_ms", "x_scan_avx512", "chosen"});
    for (const auto &[num_bits, support] : shapes) {
        const Distribution dist = clusteredSupport(num_bits, support, rng);
        std::vector<Bits> outcomes;
        for (const core::Entry &e : dist.entries())
            outcomes.push_back(e.outcome);
        const int dmax = core::defaultMaxDistance(num_bits);
        const auto bins = static_cast<std::size_t>(dmax) + 1;
        const bool chosen = core::preferLayers(num_bits, support, dmax, 1);
        const RowCounts reference =
            scanCounts(core::kScalarHammerKernels, outcomes, bins);

        struct Row
        {
            std::string path;
            double secs;
        };
        std::vector<Row> rows;
        std::vector<std::uint16_t> planes;
        double avx512_scan = 0.0;
        for (const bool layers : {false, true}) {
            for (const common::KernelTier tier : common::supportedTiers()) {
                const core::HammerKernels *kernels =
                    core::hammerKernelsForTier(tier);
                if (kernels->tier != tier)
                    continue; // runs a lower tier's kernels
                const std::string path =
                    std::string(layers ? "layers/" : "scan/") +
                    common::tierName(tier);
                double best = -1.0;
                RowCounts counts;
                for (int pass = 0; pass < 7; ++pass) {
                    const auto start = std::chrono::steady_clock::now();
                    counts = layers ? layerCounts(*kernels, outcomes,
                                                  num_bits, bins, planes)
                                    : scanCounts(*kernels, outcomes, bins);
                    const double t = secondsSince(start);
                    if (best < 0.0 || t < best)
                        best = t;
                }
                if (counts != reference) {
                    std::printf("ERROR: Step-1 counts of %s differ from "
                                "the scalar scan (%d bits, N=%zu)\n",
                                path.c_str(), num_bits, support);
                    ok = false;
                }
                if (!layers && tier == common::KernelTier::Avx512)
                    avx512_scan = best;
                rows.push_back({path, best});
                report.metric("step1_s_" + path + "_b" +
                                  std::to_string(num_bits) + "_n" +
                                  std::to_string(support),
                              best);
            }
        }
        for (const Row &row : rows) {
            const bool layers = row.path.rfind("layers/", 0) == 0;
            table.addRow(
                {std::to_string(num_bits),
                 common::Table::fmt(static_cast<long long>(support)),
                 row.path, common::Table::fmt(row.secs * 1e3, 3),
                 avx512_scan > 0.0
                     ? common::Table::fmt(avx512_scan / row.secs, 2)
                     : "-",
                 layers == chosen ? "*" : ""});
            if (num_bits == 14 && support == 6000 &&
                row.path == "layers/avx512")
                gate_layers = row.secs;
        }
        if (num_bits == 14 && support == 6000)
            gate_scan = avx512_scan;
    }
    std::printf("\nStep 1 by path (default radius, 1 thread; * = the "
                "path preferLayers picks):\n");
    table.print(std::cout);
    if (!ok || gate_scan <= 0.0 || gate_layers <= 0.0)
        return ok;
    const double x = gate_scan / gate_layers;
    report.metric("step1_x_layers_over_avx512_scan_b14_n6000", x);
    if (HAMMER_BENCH_SANITIZED) {
        std::puts("note: sanitizer build — Step-1 DP floor disabled");
    } else if (x < kLayersOverAvx512ScanFloor) {
        std::printf("ERROR: the Step-1 DP is only %.2fx the avx512 scan "
                    "at 14 bits, N=6000 (floor %.1fx)\n",
                    x, kLayersOverAvx512ScanFloor);
        return false;
    }
    return true;
}

/**
 * 8192 shots drawn from a clustered @p num_bits-bit distribution of
 * @p support outcomes, as counts / 8192: the shot-quantized, heavily
 * tied histograms HAMMER post-processes.
 */
Distribution
shotHistogram(int num_bits, std::size_t support, common::Rng &rng)
{
    constexpr int kShots = 8192;
    const Distribution dist = clusteredSupport(num_bits, support, rng);
    std::vector<double> cdf;
    double total = 0.0;
    for (const core::Entry &e : dist.entries())
        cdf.push_back(total += e.probability);
    std::map<Bits, int> counts;
    for (int s = 0; s < kShots; ++s) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                         rng.uniform() * total);
        const auto k = std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
        ++counts[dist.entries()[k].outcome];
    }
    std::vector<core::Entry> entries;
    for (const auto &[x, count] : counts)
        entries.push_back({x, static_cast<double>(count) / kShots});
    return Distribution::fromSorted(num_bits, std::move(entries));
}

/**
 * Step 3 alone, single thread, filter on, on one shot-quantized
 * 13-bit histogram: every row against the whole support (the full
 * run) and scoreSupport's ranked runs, under every tier with kernels
 * of its own.  Any score differing from the scalar full run is an
 * error.  The ranked runs may score at most half of the N^2
 * lane-pairs, a count fixed by the histogram and free of timing
 * noise, and outside sanitizer builds they must be at least 1.5x
 * faster than the full run on every tier.  Returns false on a failed
 * check or gate.
 */
bool
benchStep3(bench::BenchReport &report, common::Rng &rng)
{
    constexpr double kRankedOverFullFloor = 1.5;
    constexpr double kScoredShareCeiling = 0.5;
    const Distribution dist = shotHistogram(13, 2048, rng);
    const std::size_t count = dist.support();
    std::vector<Bits> outcomes;
    std::vector<double> probs;
    for (const core::Entry &e : dist.entries()) {
        outcomes.push_back(e.outcome);
        probs.push_back(e.probability);
    }
    core::HammerConfig serial;
    serial.threads = 1;
    const std::vector<double> weights = core::hammerWeights(dist, serial);
    std::vector<double> weights_ext(core::kDistanceBins, 0.0);
    std::copy(weights.begin() + 1, weights.end(), weights_ext.begin() + 1);

    std::vector<double> reference(count);
    core::kScalarHammerKernels.scoreRows(
        outcomes.data(), probs.data(), count, outcomes.data(),
        probs.data(), count, weights_ext.data(), true, reference.data());
    bool ok = true;
    bool floor_ok = true;
    std::uint64_t scored = 0;
    common::Table table({"tier", "full_ms", "ranked_ms", "x_full"});
    for (const common::KernelTier tier : common::supportedTiers()) {
        const core::HammerKernels *kernels =
            core::hammerKernelsForTier(tier);
        if (kernels->tier != tier)
            continue; // runs a lower tier's kernels, timed there
        core::setActiveHammerKernels(kernels);
        double full = -1.0;
        double ranked = -1.0;
        std::vector<double> full_scores(count);
        std::vector<double> ranked_scores(count);
        for (int pass = 0; pass < 5; ++pass) {
            auto start = std::chrono::steady_clock::now();
            kernels->scoreRows(outcomes.data(), probs.data(), count,
                               outcomes.data(), probs.data(), count,
                               weights_ext.data(), true,
                               full_scores.data());
            const double t_full = secondsSince(start);
            start = std::chrono::steady_clock::now();
            scored = core::scoreSupport(outcomes.data(), probs.data(),
                                        count, weights_ext.data(), true,
                                        1, ranked_scores.data());
            const double t_ranked = secondsSince(start);
            if (full < 0.0 || t_full < full)
                full = t_full;
            if (ranked < 0.0 || t_ranked < ranked)
                ranked = t_ranked;
        }
        core::setActiveHammerKernels(nullptr);
        if (full_scores != reference || ranked_scores != reference) {
            std::printf("ERROR: Step-3 scores under the %s tier differ "
                        "from the scalar full run\n",
                        common::tierName(tier));
            ok = false;
        }
        const double x = full / ranked;
        table.addRow({common::tierName(tier),
                      common::Table::fmt(full * 1e3, 3),
                      common::Table::fmt(ranked * 1e3, 3),
                      common::Table::fmt(x, 2)});
        report.metric(std::string("step3_x_ranked_over_full_") +
                          common::tierName(tier),
                      x);
        if (!HAMMER_BENCH_SANITIZED && x < kRankedOverFullFloor) {
            std::printf("ERROR: the ranked Step 3 is only %.2fx the full "
                        "run under the %s tier (floor %.1fx)\n",
                        x, common::tierName(tier), kRankedOverFullFloor);
            floor_ok = false;
        }
    }
    const double share = static_cast<double>(scored) /
                         (static_cast<double>(count) * count);
    report.metric("step3_scored_share", share);
    std::printf("\nStep 3, full run vs ranked runs (8192 shots, %d bits, "
                "N=%zu, 1 thread; ranked runs score %.1f%% of N^2):\n",
                dist.numBits(), count, 100.0 * share);
    table.print(std::cout);
    if (share > kScoredShareCeiling) {
        std::printf("ERROR: the ranked Step 3 scores %.1f%% of N^2 "
                    "lane-pairs (ceiling %.0f%%)\n",
                    100.0 * share, 100.0 * kScoredShareCeiling);
        ok = false;
    }
    if (HAMMER_BENCH_SANITIZED)
        std::puts("note: sanitizer build — Step-3 floor disabled");
    return ok && floor_ok;
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
    const bool tiers_ok = benchKernelTiers(report, rng);
    const bool step1_ok = benchStep1(report, rng);
    const bool step3_ok = benchStep3(report, rng);
    return tiers_ok && step1_ok && step3_ok ? 0 : 1;
}
