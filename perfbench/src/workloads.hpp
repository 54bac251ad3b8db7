/**
 * @file
 * The benchmark's request generator.  Every workload is a fixed cycle
 * of spec templates whose order within each cycle, and whose
 * experiment seeds, are drawn from the run's --seed: the same seed
 * gives the same protocol lines, and the program under test sees only
 * those lines.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Deterministic stream of spec lines for one workload. */
class JobStream
{
  public:
    /** @throws std::invalid_argument for an unknown workload name. */
    JobStream(const std::string &workload, std::uint64_t seed);

    /** Protocol line of request @p index. */
    std::string line(std::size_t index) const;

    /** Requests per cycle; every cycle holds each template once. */
    std::size_t cycle() const { return templates_.size(); }

    /**
     * Lines run during set-up repetition @p rep: one per template
     * with seeds outside the timed stream (sweep-mitigate), the
     * cheapest templates (replay-heavy), or every distinct request,
     * the cache warm-up (serve-repeat).
     */
    std::vector<std::string> warmup(int rep) const;

    /**
     * Leading requests every run completes, whatever its length:
     * the fixed job set pst_gain_gmean and core.pair_ops are taken
     * over, so both repeat exactly for a seed.
     */
    std::size_t scoredPrefix() const { return scored_; }

  private:
    std::string render(std::size_t templateIndex,
                       std::uint64_t specSeed) const;
    std::uint64_t specSeed(std::uint64_t a, std::uint64_t b) const;

    std::uint64_t seed_;
    std::string suffixBackend_;
    std::vector<std::string> templates_;
    std::size_t scored_ = 0;
    std::size_t warmTemplates_ = 0;
    bool repeat_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
