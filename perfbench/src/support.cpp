#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "api/json.hpp"
#include "bench.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/kernels.hpp"

namespace perfbench {

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

void
Report::mismatch(const std::string &what)
{
    correct = false;
    note("MISMATCH: %s", what.c_str());
}

void
note(const char *format, ...)
{
    std::va_list args;
    va_start(args, format);
    std::fputs("# ", stdout);
    std::vfprintf(stdout, format, args);
    std::fputc('\n', stdout);
    va_end(args);
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double value : values)
        total += value;
    return total;
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : sum(values) / values.size();
}

Tail
latencyTail(const std::vector<double> &values)
{
    static const double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                     90.0, 80.0, 75.0, 50.0};
    Tail tail;
    tail.samples = values.size();
    for (const double p : kLadder) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * values.size()));
        if (values.size() - std::min(rank, values.size()) >= 10 ||
            p == 50.0) {
            tail.percentile = p;
            tail.value = percentile(values, p);
            tail.beyond = values.size() - std::min(rank, values.size());
            break;
        }
    }
    return tail;
}

double
geometricMean(const std::vector<double> &values)
{
    double logs = 0.0;
    std::size_t n = 0;
    for (const double value : values)
        if (std::isfinite(value) && value > 0.0) {
            logs += std::log(value);
            ++n;
        }
    return n == 0 ? 0.0 : std::exp(logs / n);
}

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

double
selfCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return tv.tv_sec + tv.tv_usec / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
childCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int index = 3; index <= 15 && fields >> field; ++index)
        if (index >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
childPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // "NNN kB"
    return 0.0;
}

/** Resident set of this process now, MiB (/proc/self/statm). */
double
currentRssMb()
{
    std::ifstream in("/proc/self/statm");
    double pages = 0.0, resident = 0.0;
    in >> pages >> resident;
    return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

RssSampler::RssSampler() : thread_([this] { sample(); }) {}

RssSampler::~RssSampler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
}

void
RssSampler::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        running_ = true;
        peakMb_ = std::max(peakMb_, currentRssMb());
    }
    wake_.notify_all();
}

void
RssSampler::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    peakMb_ = std::max(peakMb_, currentRssMb());
    running_ = false;
}

void
RssSampler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    peakMb_ = 0.0;
}

double
RssSampler::peakMb() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakMb_;
}

void
RssSampler::sample()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        if (!running_) {
            wake_.wait(lock, [this] { return stop_ || running_; });
            continue;
        }
        lock.unlock();
        const double rss = currentRssMb();
        lock.lock();
        if (running_)
            peakMb_ = std::max(peakMb_, rss);
        wake_.wait_for(lock, std::chrono::milliseconds(5),
                       [this] { return stop_; });
    }
}

int
hostCpus()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n >= 1 ? static_cast<int>(n) : 1;
}

long
l2CacheBytes()
{
    return std::max(0L, ::sysconf(_SC_LEVEL2_CACHE_SIZE));
}

std::string
hostFingerprint(const Options &options)
{
    const hammer::sim::KernelTable &kernels = hammer::sim::activeKernels();
    hammer::api::JsonWriter json;
    json.beginObject();
    json.key("host").beginObject();
    json.key("kernel_tier").value(hammer::sim::tierName(kernels.tier));
    json.key("nproc").value(hostCpus());
    json.key("l2_bytes").value(
        static_cast<std::uint64_t>(l2CacheBytes()));
    json.key("l3_bytes").value(static_cast<std::uint64_t>(
        std::max(0L, ::sysconf(_SC_LEVEL3_CACHE_SIZE))));
    json.key("source").value(options.source);
    json.endObject();
    json.key("workload").value(options.workload);
    json.key("seed").value(options.seed);
    json.endObject();
    return json.str();
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

double
Tracer::now() const
{
    return secondsSince(epoch_);
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {spans_.begin(), spans_.end()};
}

void
Tracer::write(const std::string &path) const
{
    hammer::api::JsonWriter json;
    json.beginObject();
    json.key("traceEvents").beginArray();
    for (const Span &span : spans()) {
        json.beginObject();
        json.key("name").value(span.name);
        json.key("cat").value(span.layer);
        json.key("ph").value("X");
        json.key("ts").value(span.start * 1e6);
        json.key("dur").value(span.seconds() * 1e6);
        json.key("pid").value(1);
        json.key("tid").value(span.trace);
        json.key("args").beginObject();
        json.key("trace").value(span.trace);
        json.key("span").value(span.id);
        json.key("parent").value(span.parent);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::ofstream out(path);
    out << json.str() << '\n';
}

SpanSummary
summarize(std::vector<Span> spans)
{
    SpanSummary summary;
    summary.spans = std::move(spans);
    for (const Span &span : summary.spans)
        if (span.parent == 0 && std::string(span.layer) == "job") {
            summary.jobWall += span.seconds();
            summary.jobIds.push_back(span.id);
        }
    std::sort(summary.jobIds.begin(), summary.jobIds.end());
    for (const Span &span : summary.spans)
        if (summary.underJob(span))
            summary.childWall += span.seconds();
    return summary;
}

double
SpanSummary::layerSeconds(const std::string &layer) const
{
    double total = 0.0;
    for (const Span &span : spans)
        if (layer == span.layer && underJob(span))
            total += span.seconds();
    return total;
}

bool
SpanSummary::underJob(const Span &span) const
{
    return std::binary_search(jobIds.begin(), jobIds.end(), span.parent);
}

std::vector<double>
SpanSummary::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans)
        if (name == span.name)
            out.push_back(span.seconds());
    return out;
}

// ---------------------------------------------------------------------------
// Per-layer facts of executed jobs
// ---------------------------------------------------------------------------

ExecutedJob
executedJob(const hammer::api::Result &result,
            const hammer::api::Workload &workload,
            const hammer::noise::NoisySampler *sampler)
{
    ExecutedJob job;
    job.build = result.stageSeconds("workload");
    job.standup = result.stageSeconds("backend");
    job.sample = result.stageSeconds("sample");
    job.mitigate = result.stageSeconds("mitigate");
    job.score = result.stageSeconds("score");
    job.shots = result.shots;
    job.pairOps = result.hammerStats.pairOperations;
    job.support = result.hammerStats.uniqueOutcomes;
    const hammer::sim::Circuit &circuit = workload.routed.circuit;
    job.qubits = circuit.numQubits();
    const double stateBytes = 2.0 * 16.0 * std::ldexp(1.0, job.qubits);
    double gates = static_cast<double>(circuit.size());
    if (const auto *trajectory =
            dynamic_cast<const hammer::noise::TrajectorySampler *>(
                sampler)) {
        const hammer::noise::ReplayStats &replay =
            trajectory->replayStats();
        job.trajectories = replay.trajectories;
        job.zeroError = replay.zeroError;
        job.gatesFull = replay.gatesFull;
        job.gatesReplayed = replay.gatesReplayed;
        gates = static_cast<double>(replay.gatesReplayed);
    }
    job.bytesComputed = gates * stateBytes;
    return job;
}

void
executedLayerMetrics(const std::vector<ExecutedJob> &jobs, Metrics &out)
{
    std::vector<double> build, standup, sample, mitigate, score;
    double shots = 0.0, trajectories = 0.0, pairOps = 0.0;
    double support = 0.0, bytes = 0.0, stateOverL2 = 0.0;
    double zeroError = 0.0, gatesFull = 0.0, gatesReplayed = 0.0;
    const double l2 = static_cast<double>(l2CacheBytes());
    for (const ExecutedJob &job : jobs) {
        build.push_back(job.build);
        standup.push_back(job.standup);
        sample.push_back(job.sample);
        mitigate.push_back(job.mitigate);
        score.push_back(job.score);
        shots += job.shots;
        trajectories += job.trajectories;
        zeroError += job.zeroError;
        gatesFull += job.gatesFull;
        gatesReplayed += job.gatesReplayed;
        pairOps += job.pairOps;
        support += job.support;
        bytes += job.bytesComputed;
        if (l2 > 0.0)
            stateOverL2 += 16.0 * std::ldexp(1.0, job.qubits) / l2;
    }
    const double n = std::max<std::size_t>(jobs.size(), 1);
    auto rate = [](double count, double seconds) {
        return seconds > 0.0 ? count / seconds : 0.0;
    };
    out["circuits.build_ms_p50"] = median(build) * 1e3;
    out["noise.standup_ms_p50"] = median(standup) * 1e3;
    out["noise.sample_ms_p50"] = median(sample) * 1e3;
    out["noise.shots_per_s"] = rate(shots, sum(sample));
    out["noise.trajectories_per_s"] = rate(trajectories, sum(sample));
    out["noise.replay_hit_rate"] = rate(zeroError, trajectories);
    out["noise.replayed_fraction"] = rate(gatesReplayed, gatesFull);
    out["sim.bytes_computed_per_job"] = bytes / n;
    out["sim.gbps_computed"] = rate(bytes, sum(sample)) / 1e9;
    out["sim.state_bytes_over_l2"] = stateOverL2 / n;
    out["core.mitigate_ms_p50"] = median(mitigate) * 1e3;
    out["core.pair_ops_per_s"] = rate(pairOps, sum(mitigate));
    out["core.support_mean"] = support / n;
    out["metrics.score_ms_p50"] = median(score) * 1e3;
}

} // namespace perfbench
