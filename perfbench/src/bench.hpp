/**
 * @file
 * Shared pieces of the repository benchmark: run options, the report
 * every workload fills, statistics, process accounting, the host
 * fingerprint and the in-memory span recorder of the traced run.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/pipeline.hpp"
#include "common/checksum.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to @p end. */
double secondsBetween(Clock::time_point start, Clock::time_point end);

/** Seconds since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cli;     ///< hammer_cli binary (shard worker processes).
    std::string workDir; ///< Scratch directory inside the checkout.
    std::string source;  ///< Commit or source digest of the program.
};

/** Metric name -> value, as measured. */
using Metrics = std::map<std::string, double>;

/**
 * What one run reports.  End-to-end metrics come from the untraced
 * phase, per-layer metrics from the traced one; the result line
 * carries one set or the other.
 */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics endToEnd;
    Metrics perLayer;

    /** Record a correctness failure (printed, and fails the run). */
    void mismatch(const std::string &what);
};

/** printf-style line on stdout, prefixed "# " (never the last line). */
void note(const char *format, ...)
    __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/** Nearest-rank percentile @p p (0..100) of @p values; 0 when empty. */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

double sum(const std::vector<double> &values);

double mean(const std::vector<double> &values);

/**
 * The latency tail: the highest of a fixed percentile ladder that
 * still has at least ten samples beyond it.
 */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

Tail latencyTail(const std::vector<double> &values);

/** exp(mean(log x)) over strictly positive, finite @p values. */
double geometricMean(const std::vector<double> &values);

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

/** User + system CPU seconds of this process. */
double selfCpuSeconds();

/** User + system CPU seconds of live child @p pid (/proc). */
double childCpuSeconds(pid_t pid);

/** Peak resident set of live child @p pid, MiB (/proc). */
double childPeakRssMb(pid_t pid);

/** Online CPU count (the worker budget every workload sizes to). */
int hostCpus();

/** Per-core L2 cache size in bytes (0 when unknown). */
long l2CacheBytes();

/**
 * The one-line host fingerprint printed with every result: kernel
 * tier, CPU count, cache sizes and the program's source id.
 */
std::string hostFingerprint(const Options &options);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/**
 * One timed call into a layer.  Spans of one job share a trace id.
 * The job's root span (layer "job") has parent 0 and every call made
 * for the job is its child.  Calls made on a finished job's result
 * (encode, decode, canonical form) hang off a second root of layer
 * "probe", so they are timed without counting as job wall time.
 */
struct Span
{
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char *layer = "";
    const char *name = "";
    double start = 0.0; ///< Seconds since the tracer's epoch.
    double end = 0.0;

    double seconds() const { return end - start; }
};

/**
 * In-memory span store.  Spans are appended under a mutex (one
 * append per call, far below the calls' own cost) and written out
 * once, when the run ends.
 */
class Tracer
{
  public:
    Tracer();

    /** Seconds since the tracer's epoch. */
    double now() const;

    /** Fresh span id (never 0). */
    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    void record(const Span &span);

    /** Every recorded span, in record order. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON to @p path. */
    void write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::deque<Span> spans_;
};

/**
 * Times one call as a child of @p root:
 *   auto line = timed(tracer, root, "api", "parseSpecLine", [&] {...});
 */
template <typename Fn>
auto
timed(Tracer &tracer, const Span &root, const char *layer,
      const char *name, Fn &&fn)
{
    Span span;
    span.trace = root.trace;
    span.id = tracer.nextId();
    span.parent = root.id;
    span.layer = layer;
    span.name = name;
    span.start = tracer.now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        span.end = tracer.now();
        tracer.record(span);
    } else {
        auto value = fn();
        span.end = tracer.now();
        tracer.record(span);
        return value;
    }
}

/**
 * Per-layer accounting over recorded spans.  Child spans have no
 * children of their own, so a layer's self time is the summed
 * duration of its spans under job roots, and the root's self time is
 * what no child span covers.
 */
struct SpanSummary
{
    std::vector<Span> spans;
    std::vector<std::uint64_t> jobIds; ///< Job root span ids, sorted.
    double jobWall = 0.0;   ///< Sum of job root-span durations.
    double childWall = 0.0; ///< Sum of their children's durations.

    /** True when @p span is a child of a job root. */
    bool underJob(const Span &span) const;

    /** Self seconds of @p layer's spans under job roots. */
    double layerSeconds(const std::string &layer) const;

    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;
};

SpanSummary summarize(std::vector<Span> spans);

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/** Which requests a closed loop runs, and with how many clients. */
struct Loop
{
    int clients = 1;
    std::size_t first = 0;      ///< Index of the first request.
    std::size_t minEnd = 0;     ///< Never stop before this index.
    std::size_t end = SIZE_MAX; ///< Stop here whatever the time.
};

/** closedLoop's @p seconds for a loop bounded by Loop::end alone. */
constexpr double kUntimed = 1e9;

/**
 * Closed loop: loop.clients threads each run job(index) back to back
 * over indices first, first + 1, ... until @p seconds have passed or
 * index loop.end is reached.  Every index below the one the loop stops
 * at runs exactly once.
 *
 * @return Seconds from the start to the last job's completion.
 */
template <typename Job>
double
closedLoop(const Loop &loop, double seconds, Job &&job)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<std::size_t> next{loop.first};
    std::atomic<std::size_t> stopAt{loop.end};
    std::vector<double> lastDone(loop.clients, 0.0);
    std::vector<std::thread> threads;
    for (int client = 0; client < loop.clients; ++client)
        threads.emplace_back([&, client] {
            for (;;) {
                const std::size_t index = next.fetch_add(1);
                if (index >= stopAt.load())
                    break;
                if (Clock::now() >= deadline) {
                    const std::size_t boundary = std::max(index, loop.minEnd);
                    std::size_t seen = stopAt.load();
                    while (boundary < seen &&
                           !stopAt.compare_exchange_weak(seen, boundary)) {
                    }
                    if (index >= stopAt.load())
                        break;
                }
                job(index);
                lastDone[client] = secondsSince(start);
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    return *std::max_element(lastDone.begin(), lastDone.end());
}

/** Run fn(0) .. fn(n - 1) across every CPU; @p fn must not throw. */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < hostCpus(); ++t)
        threads.emplace_back([&] {
            for (std::size_t k; (k = next.fetch_add(1)) < n;)
                fn(k);
        });
    for (std::thread &thread : threads)
        thread.join();
}

/**
 * Peak resident set of this process over the intervals between
 * resume() and pause(), sampled every 5 ms.  getrusage's peak covers
 * the whole process life, including the correctness checks that run
 * between measured windows.
 */
class RssSampler
{
  public:
    RssSampler();
    ~RssSampler();

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    void resume();
    void pause();

    /** Forget the peak seen so far. */
    void reset();

    /** Highest resident set seen while running, MiB. */
    double peakMb() const;

  private:
    void sample();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool running_ = false;
    bool stop_ = false;
    double peakMb_ = 0.0;
    std::thread thread_;
};

// ---------------------------------------------------------------------------
// Per-layer facts of executed jobs
// ---------------------------------------------------------------------------

/**
 * What one executed job tells about the layers below api: its
 * pipeline timing rows, HAMMER and replay counters, and the modelled
 * bytes the simulation kernels moved for it.
 */
struct ExecutedJob
{
    double build = 0.0;   ///< "workload" row: build + transpile + route.
    double standup = 0.0; ///< "backend" row.
    double sample = 0.0;  ///< "sample" row.
    double mitigate = 0.0;
    double score = 0.0;
    int shots = 0;
    int qubits = 0; ///< Routed (physical) width.
    std::uint64_t pairOps = 0;
    std::size_t support = 0;
    std::uint64_t trajectories = 0;
    std::uint64_t zeroError = 0;
    std::uint64_t gatesFull = 0;
    std::uint64_t gatesReplayed = 0;

    /**
     * Bytes the state-vector kernels read and wrote: every gate
     * application streams the whole state in and out (2 x 16 B per
     * amplitude).  Replayed gates for trajectory runs, one clean pass
     * otherwise.
     */
    double bytesComputed = 0.0;
};

/**
 * Facts of one executed job: timing rows and counters from
 * @p result, routed width and gate count from @p workload, replay
 * counters from @p sampler when it is a trajectory sampler.
 */
ExecutedJob executedJob(const hammer::api::Result &result,
                        const hammer::api::Workload &workload,
                        const hammer::noise::NoisySampler *sampler);

/**
 * Fill the noise, sim and core rate metrics from @p jobs:
 * stage-row medians, throughputs and replay ratios.
 */
void executedLayerMetrics(const std::vector<ExecutedJob> &jobs,
                          Metrics &out);

// ---------------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------------

/** sweep-mitigate and replay-heavy: in-process ExecutionService. */
void runLocal(const Options &options, Report &report);

/** serve-repeat: ShardRouter over forked shard worker processes. */
void runServe(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
