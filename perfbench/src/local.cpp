/**
 * @file
 * sweep-mitigate and replay-heavy: spec lines through an in-process
 * ExecutionService (untraced), then, for --trace 1, the same jobs
 * through the staged Pipeline calls with one span per call.
 */

#include <malloc.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hammer;

/** Concurrency of one local workload. */
struct LocalShape
{
    int clients = 1;           ///< Closed-loop jobs outstanding.
    int serviceWorkers = 1;    ///< ExecutionService workers.
    int specThreads = 0;       ///< Inner sampling threads (0 = all CPUs).
    bool cycleWindows = false; ///< One template cycle per window.
};

LocalShape
shapeFor(const std::string &workload)
{
    LocalShape shape;
    if (workload == "sweep-mitigate") {
        // One job outstanding per worker; a multi-worker service runs
        // each job's sampling on one thread, so the staged path does too.
        shape.clients = hostCpus();
        shape.serviceWorkers = hostCpus();
        shape.specThreads = 1;
    } else {
        // One job at a time, its trajectories fanned over every CPU; a
        // 1-worker service runs the job inline in submit().  One job
        // is a large share of a window, so every window runs one whole
        // cycle: each then holds the same templates.
        shape.cycleWindows = true;
    }
    return shape;
}

/** One job of the untraced service phase. */
struct ServiceJob
{
    std::size_t index = 0;
    bool failed = false;
    double latency = 0.0;   ///< parse + submit + wait, seconds.
    double submit = 0.0;    ///< ExecutionService::submit alone.
    double queueWait = 0.0; ///< latency minus the job's stage rows.
    std::uint64_t checksum = 0;
    double pstGain = 0.0;
    std::uint64_t pairOps = 0;
};

/** One job of the traced staged-pipeline phase. */
struct TracedJob
{
    std::size_t index = 0;
    bool failed = false;
    std::uint64_t checksum = 0;
    std::uint64_t canonical = 0; ///< FNV-1a of canonicalResultJson.
    double pstGain = 0.0;
    double wall = 0.0;
    std::size_t lineBytes = 0;
    ExecutedJob executed;
};

/** Reference digests of a serial Pipeline::run. */
struct Reference
{
    bool failed = false;
    std::uint64_t checksum = 0;
    std::uint64_t canonical = 0;
    double pstGain = 0.0;
};

double
pstGain(const api::Result &result)
{
    return result.pstMitigated / result.pstRaw;
}

/** Run every warm-up line through @p service and wait for all. */
void
warm(api::ExecutionService &service, const std::vector<std::string> &lines)
{
    std::vector<api::ExecutionService::JobHandle> handles;
    for (const std::string &line : lines)
        handles.push_back(service.submit(api::parseSpecLine(line).spec));
    for (const auto &handle : handles)
        service.wait(handle);
}

std::vector<ServiceJob>
servicePhase(api::ExecutionService &service, const JobStream &stream,
             const Loop &loop, double seconds, double &wall)
{
    std::mutex mutex;
    std::vector<ServiceJob> jobs;
    wall = closedLoop(loop, seconds, [&](std::size_t index) {
        ServiceJob job;
        job.index = index;
        try {
            const Clock::time_point start = Clock::now();
            api::SpecLine parsed = api::parseSpecLine(stream.line(index));
            const Clock::time_point submitStart = Clock::now();
            const auto handle =
                service.submit(std::move(parsed.spec), parsed.priority);
            job.submit = secondsSince(submitStart);
            const api::Result result = service.wait(handle);
            job.latency = secondsSince(start);
            job.queueWait = std::max(
                0.0, secondsBetween(submitStart, Clock::now()) -
                         result.totalSeconds());
            job.checksum = api::resultChecksum(result);
            job.pstGain = pstGain(result);
            job.pairOps = result.hammerStats.pairOperations;
        } catch (const std::exception &error) {
            job.failed = true;
            note("job %zu failed: %s", index, error.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        jobs.push_back(job);
    });
    return jobs;
}

std::vector<TracedJob>
tracedPhase(Tracer &tracer, const JobStream &stream, const Loop &loop,
            int specThreads, double seconds)
{
    const api::Pipeline pipeline;
    std::mutex mutex;
    std::vector<TracedJob> jobs;
    closedLoop(loop, seconds, [&](std::size_t index) {
        TracedJob job;
        job.index = index;
        Span root;
        root.trace = index + 1;
        root.id = tracer.nextId();
        root.layer = "job";
        root.name = "job";
        try {
            root.start = tracer.now();
            api::SpecLine parsed = timed(
                tracer, root, "api", "parseSpecLine",
                [&] { return api::parseSpecLine(stream.line(index)); });
            api::ExperimentSpec &spec = parsed.spec;
            spec.backendSpec.threads = specThreads;
            timed(tracer, root, "plan", "estimateSpecCost",
                  [&] { return api::estimateSpecCost(spec); });
            api::RunState state;
            api::Result result =
                timed(tracer, root, "circuits", "Pipeline::buildWorkload",
                      [&] { return pipeline.buildWorkload(spec, state); });
            timed(tracer, root, "noise", "Pipeline::execute",
                  [&] { pipeline.execute(spec, state, result); });
            timed(tracer, root, "core", "Pipeline::mitigate",
                  [&] { pipeline.mitigate(spec, state, result); });
            timed(tracer, root, "metrics", "Pipeline::score",
                  [&] { pipeline.score(state, result); });
            root.end = tracer.now();
            tracer.record(root);
            job.wall = root.seconds();
            job.executed = executedJob(result, *result.workload,
                                       state.sampler.get());
            job.checksum = api::resultChecksum(result);
            job.pstGain = pstGain(result);

            // Calls on the finished result: timed, outside job wall.
            Span probe = root;
            probe.id = tracer.nextId();
            probe.layer = "probe";
            probe.name = "probe";
            probe.start = tracer.now();
            const std::string line =
                timed(tracer, probe, "api", "Result::json",
                      [&] { return result.json(); });
            timed(tracer, probe, "api", "resultFromJson",
                  [&] { return api::resultFromJson(line); });
            const std::string canonical =
                timed(tracer, probe, "api", "canonicalResultJson",
                      [&] { return api::canonicalResultJson(line); });
            probe.end = tracer.now();
            tracer.record(probe);
            job.lineBytes = line.size();
            job.canonical = common::fnv1a64(canonical);
        } catch (const std::exception &error) {
            job.failed = true;
            note("traced job %zu failed: %s", index, error.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        jobs.push_back(job);
    });
    return jobs;
}

/**
 * Serial Pipeline::run of every request in @p todo, fanned across
 * CPUs one spec per thread (results are thread-count invariant).
 * The canonical digest is taken only when asked: encoding costs ~10%
 * of a job.
 */
std::unordered_map<std::size_t, Reference>
references(const JobStream &stream, const std::vector<std::size_t> &todo,
           bool canonical)
{
    const api::Pipeline pipeline;
    std::vector<Reference> refs(todo.size());
    parallelFor(todo.size(), [&](std::size_t k) {
        try {
            api::ExperimentSpec spec =
                api::parseSpecLine(stream.line(todo[k])).spec;
            spec.backendSpec.threads = 1;
            const api::Result result = pipeline.run(spec);
            refs[k].checksum = api::resultChecksum(result);
            refs[k].pstGain = pstGain(result);
            if (canonical)
                refs[k].canonical =
                    common::fnv1a64(api::canonicalResultJson(result.json()));
        } catch (const std::exception &error) {
            refs[k].failed = true;
            note("reference run %zu failed: %s", todo[k], error.what());
        }
    });
    std::unordered_map<std::size_t, Reference> out;
    for (std::size_t k = 0; k < todo.size(); ++k)
        out[todo[k]] = refs[k];
    return out;
}

/** Geometric-mean PST gain over the scored prefix of @p jobs. */
template <typename JobT>
double
prefixGain(const std::vector<JobT> &jobs, std::size_t prefix)
{
    std::vector<std::pair<std::size_t, double>> gains;
    for (const JobT &job : jobs)
        if (job.index < prefix)
            gains.emplace_back(job.index, job.pstGain);
    // Index order: the mean must not depend on completion order.
    std::sort(gains.begin(), gains.end());
    std::vector<double> values;
    for (const auto &gain : gains)
        values.push_back(gain.second);
    return geometricMean(values);
}

} // namespace

void
runLocal(const Options &options, Report &report)
{
    const JobStream stream(options.workload, options.seed);
    const LocalShape shape = shapeFor(options.workload);
    api::ExecutionServiceOptions serviceOptions;
    serviceOptions.workers = shape.serviceWorkers;

    // Set-up, repeated: construct the service and warm it up.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    std::unique_ptr<api::ExecutionService> service;
    for (int rep = 0; rep < kSetups; ++rep) {
        service.reset();
        const Clock::time_point start = Clock::now();
        service = std::make_unique<api::ExecutionService>(serviceOptions);
        warm(*service, stream.warmup(rep));
        setups.push_back(secondsSince(start));
    }

    // The untraced phase gives every end-to-end metric.  It runs in
    // windows, each followed by the correctness check of its jobs, so
    // the measured time is spread over the run: a shared host's speed
    // drifts over tens of seconds.  Windows are a fifth of the phase,
    // or one cycle each until the phase's time is used.  A traced run
    // gives half its time to the traced phase.
    constexpr int kWindows = 5;
    const double phaseSeconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    Loop loop;
    loop.clients = shape.clients;
    loop.minEnd = stream.scoredPrefix();
    RssSampler rss;
    const api::ServiceStats before = service->stats();
    std::vector<ServiceJob> jobs;
    std::unordered_map<std::size_t, Reference> refs;
    double wall = 0.0, cpu = 0.0;
    std::vector<double> windowRss;
    int windows = 0;
    for (; shape.cycleWindows ? wall < phaseSeconds : windows < kWindows;
         ++windows) {
        rss.reset();
        rss.resume();
        const double cpuStart = selfCpuSeconds();
        double windowWall = 0.0;
        if (shape.cycleWindows)
            loop.end = loop.first + stream.cycle();
        const std::vector<ServiceJob> done = servicePhase(
            *service, stream, loop,
            shape.cycleWindows ? kUntimed : phaseSeconds / kWindows,
            windowWall);
        cpu += selfCpuSeconds() - cpuStart;
        rss.pause();
        windowRss.push_back(rss.peakMb());
        wall += windowWall;

        // Every result against a serial Pipeline::run.
        std::vector<std::size_t> todo;
        for (const ServiceJob &job : done) {
            todo.push_back(job.index);
            loop.first = std::max(loop.first, job.index + 1);
        }
        refs.merge(references(stream, todo, false));
        // Hand the check's freed memory back before the next window
        // is sampled.
        ::malloc_trim(0);
        for (const ServiceJob &job : done)
            if (!job.failed && (refs.at(job.index).failed ||
                                job.checksum != refs.at(job.index).checksum))
                report.mismatch("service result " + std::to_string(job.index) +
                                " differs from Pipeline::run");
        jobs.insert(jobs.end(), done.begin(), done.end());
    }
    const api::ServiceStats after = service->stats();

    std::vector<double> latencies, submits, queueWaits;
    std::uint64_t pairOpsPrefix = 0;
    for (const ServiceJob &job : jobs) {
        ++report.attempted;
        if (job.failed) {
            ++report.failed;
            continue;
        }
        latencies.push_back(job.latency * 1e3);
        submits.push_back(job.submit * 1e6);
        queueWaits.push_back(job.queueWait * 1e3);
        if (job.index < stream.scoredPrefix())
            pairOpsPrefix += job.pairOps;
    }
    const std::size_t completed = latencies.size();
    const Tail tail = latencyTail(latencies);
    const double gain = prefixGain(jobs, stream.scoredPrefix());
    report.endToEnd = {
        {"setup_s", median(setups)},
        {"jobs_per_s", completed / wall},
        {"latency_p50_ms", median(latencies)},
        {"latency_tail_ms", tail.value},
        {"cpu_ms_per_job", cpu * 1e3 / std::max<std::size_t>(completed, 1)},
        // Median of the windows' peaks: how many sampling threads hold
        // their largest buffers at once varies from window to window.
        {"peak_rss_mb", median(windowRss)},
        {"pst_gain_gmean", gain},
    };
    note("setup_s over %d set-ups: %.4f .. %.4f s", kSetups,
         percentile(setups, 0), percentile(setups, 100));
    note("closed loop: %d client(s), %zu jobs in %d windows, %.3f s; "
         "latency tail is p%.1f over %zu samples (%zu beyond); window peak "
         "RSS %.1f .. %.1f MiB",
         loop.clients, completed, windows, wall, tail.percentile,
         tail.samples, tail.beyond, percentile(windowRss, 0),
         percentile(windowRss, 100));

    std::vector<ServiceJob> refGains;
    for (const auto &[index, ref] : refs) {
        ServiceJob job;
        job.index = index;
        job.pstGain = ref.pstGain;
        refGains.push_back(job);
    }
    if (prefixGain(refGains, stream.scoredPrefix()) != gain)
        report.mismatch("pst_gain_gmean differs from Pipeline::run's");
    note("checked %zu result(s) against serial Pipeline::run",
         jobs.size());
    if (!options.trace)
        return;

    // Traced phase: the same jobs, from the first, through the staged
    // pipeline calls at the same concurrency.
    Tracer tracer;
    loop.first = 0;
    loop.end = SIZE_MAX;
    const std::vector<TracedJob> traced =
        tracedPhase(tracer, stream, loop, shape.specThreads, phaseSeconds);
    std::vector<std::size_t> todo;
    for (const TracedJob &job : traced)
        todo.push_back(job.index);
    const auto tracedRefs = references(stream, todo, true);
    std::vector<TracedJob> tracedOk;
    for (const TracedJob &job : traced) {
        ++report.attempted;
        if (job.failed) {
            ++report.failed;
            continue;
        }
        const Reference &ref = tracedRefs.at(job.index);
        if (ref.failed || job.checksum != ref.checksum ||
            job.canonical != ref.canonical)
            report.mismatch("traced result " + std::to_string(job.index) +
                            " differs from Pipeline::run");
        tracedOk.push_back(job);
    }
    if (prefixGain(traced, stream.scoredPrefix()) != gain)
        report.mismatch("pst_gain_gmean differs between phases");
    note("checked %zu traced result(s) against serial Pipeline::run by "
         "canonical digest",
         traced.size());

    tracer.write(options.workDir + "/trace-" + options.workload + ".json");
    const SpanSummary spans = summarize(tracer.spans());
    Metrics &layer = report.perLayer;
    std::vector<ExecutedJob> executed;
    double lineBytes = 0.0;
    std::unordered_map<std::size_t, double> serviceLatency;
    for (const ServiceJob &job : jobs)
        serviceLatency[job.index] = job.latency;
    std::vector<double> tracedWall, untracedWall;
    for (const TracedJob &job : tracedOk) {
        executed.push_back(job.executed);
        lineBytes += job.lineBytes;
        if (serviceLatency.count(job.index)) {
            tracedWall.push_back(job.wall);
            untracedWall.push_back(serviceLatency[job.index]);
        }
    }
    executedLayerMetrics(executed, layer);
    auto share = [&](const char *name) {
        return spans.jobWall > 0.0 ? spans.layerSeconds(name) / spans.jobWall
                                   : 0.0;
    };
    auto spanSum = [&](const char *name) {
        return sum(spans.durations(name));
    };
    const std::size_t n = std::max<std::size_t>(tracedOk.size(), 1);
    layer["core.mitigate_s_sum"] = spanSum("Pipeline::mitigate");
    layer["core.pair_ops"] = static_cast<double>(pairOpsPrefix);
    layer["core.self_share"] = share("core");
    layer["noise.sample_s_sum"] = 0.0;
    for (const ExecutedJob &job : executed)
        layer["noise.sample_s_sum"] += job.sample;
    layer["noise.self_share"] = share("noise");
    const double encodeSeconds = spanSum("Result::json");
    layer["api.encode_ms_p50"] = median(spans.durations("Result::json")) * 1e3;
    layer["api.encode_bytes_mean"] = lineBytes / n;
    layer["api.encode_mb_per_s"] =
        encodeSeconds > 0.0 ? lineBytes / encodeSeconds / 1e6 : 0.0;
    layer["api.decode_ms_p50"] =
        median(spans.durations("resultFromJson")) * 1e3;
    layer["api.canonical_ms_p50"] =
        median(spans.durations("canonicalResultJson")) * 1e3;
    layer["api.parse_us_p50"] = median(spans.durations("parseSpecLine")) * 1e6;
    layer["api.submit_us_p50"] = median(submits);
    layer["api.queue_wait_ms_p50"] = median(queueWaits);
    const double submitted =
        std::max<double>(after.submitted - before.submitted, 1.0);
    layer["api.result_cache_hit_ratio"] =
        (after.resultCache.hits - before.resultCache.hits) / submitted;
    layer["api.coalesced_ratio"] =
        (after.coalesced - before.coalesced) / submitted;
    layer["api.execute_runs"] =
        static_cast<double>(after.executeRuns - before.executeRuns);
    layer["api.busy_s"] = after.busySeconds - before.busySeconds;
    layer["api.self_share"] = share("api");
    layer["circuits.build_s_sum"] = spanSum("Pipeline::buildWorkload");
    layer["circuits.self_share"] = share("circuits");
    layer["plan.estimate_us_p50"] =
        median(spans.durations("estimateSpecCost")) * 1e6;
    const double measured =
        after.measuredCostSeconds - before.measuredCostSeconds;
    layer["plan.predicted_over_measured"] =
        measured > 0.0
            ? (after.predictedCostSeconds - before.predictedCostSeconds) /
                  measured
            : 0.0;
    layer["trace.overhead_ratio"] =
        mean(untracedWall) > 0.0 ? mean(tracedWall) / mean(untracedWall)
                                 : 0.0;
    layer["trace.untraced_share"] =
        spans.jobWall > 0.0 ? (spans.jobWall - spans.childWall) / spans.jobWall
                            : 0.0;
    note("traced phase: %zu jobs, %zu spans", tracedOk.size(),
         spans.spans.size());
}

} // namespace perfbench
