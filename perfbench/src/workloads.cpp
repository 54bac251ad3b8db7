#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Tags keeping the timed, warm-up and permutation seeds apart. */
constexpr std::uint64_t kTimedTag = 1;
constexpr std::uint64_t kWarmTag = 2;
constexpr std::uint64_t kOrderTag = 3;

} // namespace

JobStream::JobStream(const std::string &workload, std::uint64_t seed)
    : seed_(seed)
{
    if (workload == "sweep-mitigate") {
        // The paper's use case: unique circuits of the four families
        // at 12-14 qubits, HAMMER on channel-backend histograms of
        // 1k-6k outcomes, where the ~N^2 reconstruct dominates.
        // qaoa:3reg needs an even qubit count.
        templates_ = {"bv:12",          "bv:13",          "bv:14",
                      "ghz:12",         "ghz:13",         "ghz:14",
                      "mirror:12",      "mirror:13",      "mirror:14",
                      "qaoa:3reg:12:1", "qaoa:ring:13:1", "qaoa:3reg:14:1"};
        suffixBackend_ = "channel";
        scored_ = 48;
        warmTemplates_ = templates_.size();
    } else if (workload == "replay-heavy") {
        // Trajectory replay at 13-19 logical qubits: state vectors of
        // 0.25-8 MiB straddle a 2 MiB per-core L2.  No qaoa: its wide
        // supports would hand the time back to HAMMER.  Ordered by
        // cost, so the warm-up takes the cheapest.  The median job is
        // one of two ghz:18 (fixed structure, steady cost) and the p90
        // tail one of two bv:16, so neither statistic falls on a gap
        // between two costs or on mirror's wide instance spread.
        templates_ = {"ghz:16", "bv:13",  "ghz:17",    "mirror:13",
                      "bv:14",  "ghz:18", "ghz:18",    "mirror:14",
                      "bv:15",  "ghz:19", "bv:16",     "bv:16"};
        suffixBackend_ = "trajectory";
        scored_ = 12;
        warmTemplates_ = 4;
    } else if (workload == "serve-repeat") {
        // Sixteen distinct requests with 80-780 KB result lines, each
        // asked for again and again: caches and the wire do the work.
        templates_ = {"bv:12",          "bv:13",          "bv:14",
                      "bv:14",          "ghz:12",         "ghz:13",
                      "ghz:14",         "mirror:12",      "mirror:13",
                      "mirror:14",      "mirror:14",      "qaoa:3reg:12:1",
                      "qaoa:ring:12:1", "qaoa:ring:13:1", "qaoa:3reg:14:1",
                      "qaoa:ring:14:1"};
        suffixBackend_ = "channel";
        scored_ = templates_.size();
        warmTemplates_ = templates_.size();
        repeat_ = true;
    } else {
        throw std::invalid_argument(
            "unknown workload '" + workload +
            "' (sweep-mitigate | replay-heavy | serve-repeat)");
    }
}

std::uint64_t
JobStream::specSeed(std::uint64_t a, std::uint64_t b) const
{
    // parseSpecLine takes a positive int.
    const std::uint64_t mixed =
        splitmix(splitmix(seed_ ^ splitmix(a)) ^ b);
    return 1 + mixed % 2147483646ULL;
}

std::string
JobStream::render(std::size_t templateIndex, std::uint64_t seed) const
{
    std::string workload = templates_[templateIndex];
    if (workload.rfind("bv:", 0) == 0) {
        // A BV job's cost follows its key's popcount and where the
        // ones sit on the line device.  One 1 per adjacent bit pair,
        // placed by the seed, keeps every key equally costly while
        // still giving each seed its own keys.
        const int bits = std::stoi(workload.substr(3));
        std::uint64_t state = splitmix(seed ^ 0x6b6579ULL);
        std::string key(bits, '0');
        for (int pair = 0; pair < bits; pair += 2) {
            state = splitmix(state);
            key[std::min(bits - 1, pair + static_cast<int>(state & 1))] = '1';
        }
        workload += ":" + key;
    }
    return workload + "," + suffixBackend_ + ",8192," +
           std::to_string(seed) + ",hammer";
}

std::string
JobStream::line(std::size_t index) const
{
    const std::size_t n = templates_.size();
    const std::size_t cycleIndex = index / n;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Fisher-Yates with a per-cycle stream: each cycle runs every
    // template once, in a seed-dependent order.
    std::uint64_t state = splitmix(seed_ ^ splitmix(kOrderTag) ^
                                   splitmix(cycleIndex + 1));
    for (std::size_t i = n - 1; i > 0; --i) {
        state = splitmix(state);
        std::swap(order[i], order[state % (i + 1)]);
    }
    const std::size_t tpl = order[index % n];
    // serve-repeat re-asks the same sixteen requests; the other two
    // workloads never repeat a (template, seed) pair.
    const std::uint64_t seed =
        repeat_ ? specSeed(kTimedTag, tpl) : specSeed(kTimedTag, index + 1);
    return render(tpl, seed);
}

std::vector<std::string>
JobStream::warmup(int rep) const
{
    std::vector<std::string> lines;
    for (std::size_t tpl = 0; tpl < warmTemplates_; ++tpl)
        lines.push_back(repeat_
                            ? render(tpl, specSeed(kTimedTag, tpl))
                            : render(tpl, specSeed(kWarmTag,
                                                   (rep + 1) * 1000 + tpl)));
    return lines;
}

} // namespace perfbench
