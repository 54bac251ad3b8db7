/**
 * @file
 * Per-figure bench telemetry: BENCH_<fig>.json emission.
 *
 * Every bench main owns one BenchReport for its lifetime; at exit the
 * report writes the bench's wall-clock plus any recorded headline
 * metrics as `BENCH_<fig>.json`.  Files are written in smoke mode
 * (where ctest's `bench_smoke` label runs every bench on every CI
 * push — the per-figure perf trajectory the roadmap tracks) or when
 * HAMMER_BENCH_JSON is set; full-budget interactive runs stay
 * file-free unless asked.
 */

#ifndef HAMMER_BENCH_SUPPORT_REPORT_HPP
#define HAMMER_BENCH_SUPPORT_REPORT_HPP

#include <chrono>
#include <string>
#include <utility>
#include <vector>

// Sanitizer instrumentation slows code unevenly (shadow-memory
// traffic scales with loads/stores, not arithmetic), so wall-clock
// gates are meaningless on those CI legs; benches skip them when this
// is 1.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HAMMER_BENCH_SANITIZED 1
#else
#define HAMMER_BENCH_SANITIZED 0
#endif

namespace hammer::bench {

/**
 * Scoped wall-clock + metric recorder for one bench binary.
 */
class BenchReport
{
  public:
    /**
     * Start the clock.
     *
     * @param name Figure tag used in the filename, e.g.
     *        "fig8_bv_sweep" -> BENCH_fig8_bv_sweep.json.
     */
    explicit BenchReport(std::string name);

    /** Record a headline number ("gmean_pst_gain", ...). */
    void metric(const std::string &key, double value);

    /** Record a string annotation. */
    void note(const std::string &key, const std::string &value);

    /** Write the JSON file (wall-clock measured here). */
    ~BenchReport();

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

} // namespace hammer::bench

#endif // HAMMER_BENCH_SUPPORT_REPORT_HPP
