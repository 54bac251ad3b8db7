/**
 * @file
 * serve-repeat: protocol lines through a net::ShardRouter to shard
 * worker processes (hammer_cli --shard) over unix sockets.  Set-up
 * starts the fleet and executes each distinct request once; a
 * closed-loop burst gives throughput, an open-loop paced phase gives
 * latency from each request's due time.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "bench.hpp"
#include "net/router.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hammer;

constexpr int kShards = 2;
constexpr int kShardWorkers = 2;

/**
 * Open-loop request rate of the paced phase (requests/s).  Fixed, at
 * under a third of the ~180 requests/s burst capacity measured on a
 * 4-CPU avx2 host, so the phase measures latency without a backlog.
 */
constexpr double kPacedRate = 50.0;

/**
 * Burst requests per second of run time: about the 2-client burst
 * capacity measured on a 4-CPU avx2 host.  Each burst round runs a
 * fixed number of requests, not a fixed time, because the client's
 * memory grows with every request served (net::ShardRouter keeps each
 * completed result line), so peak_rss_mb must not depend on speed.
 */
constexpr double kBurstSizing = 110.0;

/** Receivers waiting on paced requests: enough that none queues. */
constexpr int kPacedReceivers = 8;

/**
 * The shard processes of one set-up.  The destructor stops and reaps
 * any still running, so no exit path leaves a child behind.
 */
class ShardFleet
{
  public:
    ShardFleet(const Options &options, int generation)
    {
        try {
            start(options, generation);
        } catch (...) {
            stop();
            throw;
        }
    }

    ~ShardFleet() { stop(); }

    ShardFleet(const ShardFleet &) = delete;
    ShardFleet &operator=(const ShardFleet &) = delete;

    const std::vector<std::string> &addresses() const { return addresses_; }
    const std::vector<pid_t> &pids() const { return pids_; }

    /**
     * Reap every shard: after a Shutdown frame they exit on their
     * own; any still running after a grace period gets SIGTERM, then
     * SIGKILL.
     */
    void stop()
    {
        for (const pid_t pid : pids_) {
            bool reaped = false;
            for (int tick = 0; tick < 500 && !reaped; ++tick) {
                if (tick == 250)
                    ::kill(pid, SIGTERM);
                reaped = ::waitpid(pid, nullptr, WNOHANG) == pid;
                if (!reaped)
                    std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            if (!reaped) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
        }
        pids_.clear();
        for (const std::string &path : paths_)
            ::unlink(path.c_str());
        paths_.clear();
    }

  private:
    void start(const Options &options, int generation)
    {
        for (int shard = 0; shard < kShards; ++shard) {
            const std::string path = options.workDir + "/shard-" +
                                     std::to_string(generation) + "-" +
                                     std::to_string(shard) + ".sock";
            ::unlink(path.c_str());
            const std::string address = "unix:" + path;
            const std::string log = options.workDir + "/shard-" +
                                    std::to_string(shard) + ".log";
            const std::string threads = std::to_string(kShardWorkers);
            std::vector<std::string> args = {
                options.cli, "--shard", "--listen", address, "--threads",
                threads};
            std::vector<char *> argv;
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            const pid_t parent = ::getpid();
            const pid_t pid = ::fork();
            if (pid < 0)
                throw std::runtime_error("cannot start " + options.cli);
            if (pid == 0) {
                // Only async-signal-safe calls until exec.  The shard
                // gets SIGTERM if this process dies first, however it
                // dies.
                ::prctl(PR_SET_PDEATHSIG, SIGTERM);
                if (::getppid() != parent)
                    ::_exit(1);
                const int fd = ::open(log.c_str(),
                                      O_WRONLY | O_CREAT | O_APPEND, 0644);
                if (fd >= 0) {
                    ::dup2(fd, STDOUT_FILENO);
                    ::dup2(fd, STDERR_FILENO);
                }
                ::execv(argv[0], argv.data());
                ::_exit(127);
            }
            pids_.push_back(pid);
            addresses_.push_back(address);
            paths_.push_back(path);
        }
        // The router connects lazily but gives up after a short
        // budget: wait until every shard is listening.
        const Clock::time_point start = Clock::now();
        for (const std::string &path : paths_) {
            struct stat info{};
            while (::stat(path.c_str(), &info) != 0) {
                if (secondsSince(start) > 30.0)
                    throw std::runtime_error("shard did not listen on " +
                                             path);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
    }

    std::vector<pid_t> pids_;
    std::vector<std::string> addresses_;
    std::vector<std::string> paths_;
};

/** The fleet, its router, and a shutdown that always runs. */
struct Fleet
{
    std::unique_ptr<ShardFleet> shards;
    std::unique_ptr<net::ShardRouter> router;

    ~Fleet() { close(); }

    void close()
    {
        if (router) {
            router->shutdownShards();
            router.reset();
        }
        if (shards)
            shards->stop();
        shards.reset();
    }
};

/** Summed counters of every shard's ExecutionService. */
struct ShardCounters
{
    double submitted = 0.0;
    double resultCacheHits = 0.0;
    double coalesced = 0.0;
    double executeRuns = 0.0;
    double busy = 0.0;
    std::vector<double> shardBusy;
    double predicted = 0.0;
    double measured = 0.0;
};

ShardCounters
shardCounters(net::ShardRouter &router)
{
    ShardCounters counters;
    for (std::size_t shard = 0; shard < router.shardCount(); ++shard) {
        const api::JsonValue stats = api::parseJson(router.fetchStats(shard));
        counters.submitted += stats.at("submitted").asNumber();
        counters.resultCacheHits +=
            stats.at("result_cache").at("hits").asNumber();
        counters.coalesced += stats.at("coalesced").asNumber();
        counters.executeRuns += stats.at("execute_runs").asNumber();
        const double busy = stats.at("busy_seconds").asNumber();
        counters.busy += busy;
        counters.shardBusy.push_back(busy);
        counters.predicted += stats.at("predicted_cost_seconds").asNumber();
        counters.measured += stats.at("measured_cost_seconds").asNumber();
    }
    return counters;
}

/**
 * Every distinct result line seen per request, so each served line
 * is checked by canonical digest once however often it repeats.
 */
class LineCheck
{
  public:
    void see(const std::string &request, const std::string &line)
    {
        const std::uint64_t hash = common::fnv1a64(line);
        std::lock_guard<std::mutex> lock(mutex_);
        if (seen_[request].insert(hash).second)
            lines_.emplace_back(request, line);
    }

    /** (request, result line) for every distinct pair seen. */
    const std::vector<std::pair<std::string, std::string>> &lines() const
    {
        return lines_;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, std::set<std::uint64_t>> seen_;
    std::vector<std::pair<std::string, std::string>> lines_;
};

/** One served request. */
struct Served
{
    std::size_t index = 0;
    bool failed = false;
    double latency = 0.0;  ///< Seconds: from submit (burst) or due time.
    double lateness = 0.0; ///< Paced: submit time minus due time.
    double wall = 0.0;     ///< Traced: root span.
    double roundtrip = 0.0;
    std::size_t wireBytes = 0;
};

/** Submit, wait and decode one request; the client's whole job. */
void
serveOne(net::ShardRouter &router, LineCheck &check, const std::string &line)
{
    const std::uint64_t id = router.submit(line);
    const std::string result = router.wait(id);
    api::resultFromJson(result);
    check.see(line, result);
}

/** Closed loop over requests loop.first .. loop.end - 1. */
std::vector<Served>
burstPhase(net::ShardRouter &router, LineCheck &check,
           const JobStream &stream, const Loop &loop, double &wall)
{
    std::mutex mutex;
    std::vector<Served> served;
    wall = closedLoop(loop, kUntimed, [&](std::size_t index) {
        Served job;
        job.index = index;
        const Clock::time_point start = Clock::now();
        try {
            serveOne(router, check, stream.line(index));
            job.latency = secondsSince(start);
        } catch (const std::exception &error) {
            job.failed = true;
            note("request %zu failed: %s", index, error.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        served.push_back(job);
    });
    return served;
}

/**
 * Open loop at kPacedRate: request k is due at start + k / rate and
 * is submitted then, whether or not earlier ones have completed.
 * Latency runs from the due time, so a stall counts against every
 * request it delays.
 */
std::vector<Served>
pacedPhase(net::ShardRouter &router, LineCheck &check,
           const JobStream &stream, std::size_t firstIndex, double seconds)
{
    struct Pending
    {
        std::size_t index;
        std::uint64_t id;
        Clock::time_point due;
        double lateness;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::queue<Pending> pending;
    bool done = false;
    std::vector<Served> served;

    std::vector<std::thread> receivers;
    for (int r = 0; r < kPacedReceivers; ++r)
        receivers.emplace_back([&] {
            for (;;) {
                Pending job;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    ready.wait(lock, [&] { return done || !pending.empty(); });
                    if (pending.empty())
                        return;
                    job = pending.front();
                    pending.pop();
                }
                Served out;
                out.index = job.index;
                out.lateness = job.lateness;
                try {
                    const std::string result = router.wait(job.id);
                    api::resultFromJson(result);
                    check.see(stream.line(job.index), result);
                    out.latency = secondsSince(job.due);
                } catch (const std::exception &error) {
                    out.failed = true;
                    note("request %zu failed: %s", job.index, error.what());
                }
                std::lock_guard<std::mutex> lock(mutex);
                served.push_back(out);
            }
        });

    const Clock::time_point start = Clock::now();
    const auto count = static_cast<std::size_t>(seconds * kPacedRate);
    for (std::size_t k = 0; k < count; ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / kPacedRate));
        std::this_thread::sleep_until(due);
        const std::size_t index = firstIndex + k;
        Pending job{index, 0, due, secondsSince(due)};
        try {
            job.id = router.submit(stream.line(index));
        } catch (const std::exception &error) {
            note("request %zu refused: %s", index, error.what());
            Served out;
            out.index = index;
            out.failed = true;
            std::lock_guard<std::mutex> lock(mutex);
            served.push_back(out);
            continue;
        }
        std::lock_guard<std::mutex> lock(mutex);
        pending.push(job);
        ready.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
    }
    ready.notify_all();
    for (std::thread &receiver : receivers)
        receiver.join();
    return served;
}

std::vector<Served>
tracedPhase(Tracer &tracer, net::ShardRouter &router, LineCheck &check,
            const JobStream &stream, int clients, double seconds)
{
    std::mutex mutex;
    std::vector<Served> served;
    Loop loop;
    loop.clients = clients;
    closedLoop(loop, seconds, [&](std::size_t index) {
        Served job;
        job.index = index;
        Span root;
        root.trace = index + 1;
        root.id = tracer.nextId();
        root.layer = "job";
        root.name = "job";
        try {
            const std::string line = stream.line(index);
            root.start = tracer.now();
            const api::SpecLine parsed =
                timed(tracer, root, "api", "parseSpecLine",
                      [&] { return api::parseSpecLine(line); });
            const double sent = tracer.now();
            const std::uint64_t id =
                timed(tracer, root, "net", "ShardRouter::submit",
                      [&] { return router.submit(line); });
            const std::string result =
                timed(tracer, root, "net", "ShardRouter::wait",
                      [&] { return router.wait(id); });
            job.roundtrip = tracer.now() - sent;
            const api::Result decoded =
                timed(tracer, root, "api", "resultFromJson",
                      [&] { return api::resultFromJson(result); });
            root.end = tracer.now();
            tracer.record(root);
            job.wall = root.seconds();
            job.wireBytes = line.size() + result.size();

            // The shard encodes every served line and the router costs
            // every request; repeating both here times that work.
            Span probe = root;
            probe.id = tracer.nextId();
            probe.layer = "probe";
            probe.name = "probe";
            probe.start = tracer.now();
            timed(tracer, probe, "plan", "estimateSpecCost",
                  [&] { return api::estimateSpecCost(parsed.spec); });
            timed(tracer, probe, "api", "Result::json",
                  [&] { return decoded.json(); });
            timed(tracer, probe, "api", "canonicalResultJson",
                  [&] { return api::canonicalResultJson(result); });
            probe.end = tracer.now();
            tracer.record(probe);
            check.see(line, result);
        } catch (const std::exception &error) {
            job.failed = true;
            note("traced request %zu failed: %s", index, error.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        served.push_back(job);
    });
    return served;
}

/**
 * Serial Pipeline::run of each distinct request, fanned across CPUs.
 * @throws std::runtime_error when one fails (it was served, so the
 *         program disagrees with itself).
 */
std::vector<api::Result>
referenceRuns(const std::vector<std::string> &lines)
{
    const api::Pipeline pipeline;
    std::vector<api::Result> results(lines.size());
    std::vector<std::string> errors(lines.size());
    parallelFor(lines.size(), [&](std::size_t k) {
        try {
            api::ExperimentSpec spec = api::parseSpecLine(lines[k]).spec;
            spec.backendSpec.threads = 1;
            results[k] = pipeline.run(spec);
        } catch (const std::exception &error) {
            errors[k] = error.what();
        }
    });
    for (std::size_t k = 0; k < lines.size(); ++k)
        if (!errors[k].empty())
            throw std::runtime_error("reference run of '" + lines[k] +
                                     "' failed: " + errors[k]);
    return results;
}

double
childrenCpu(const ShardFleet &shards)
{
    double total = 0.0;
    for (const pid_t pid : shards.pids())
        total += childCpuSeconds(pid);
    return total;
}

} // namespace

void
runServe(const Options &options, Report &report)
{
    const JobStream stream(options.workload, options.seed);
    const std::vector<std::string> distinct = stream.warmup(0);
    // Half the CPUs: the two shards' encoders and the clients' decoders
    // then fill the host without oversubscribing it.
    const int clients = std::max(1, hostCpus() / 2);

    // Set-up, repeated: start the fleet, connect, execute each
    // distinct request once (the cache warm-up).
    constexpr int kSetups = 5;
    std::vector<double> setups;
    Fleet fleet;
    std::vector<std::string> warmLines(distinct.size());
    for (int rep = 0; rep < kSetups; ++rep) {
        fleet.close();
        const Clock::time_point start = Clock::now();
        fleet.shards = std::make_unique<ShardFleet>(options, rep);
        net::ShardRouterOptions routerOptions;
        routerOptions.addresses = fleet.shards->addresses();
        fleet.router = std::make_unique<net::ShardRouter>(routerOptions);
        std::vector<std::uint64_t> ids;
        for (const std::string &line : distinct)
            ids.push_back(fleet.router->submit(line));
        for (std::size_t k = 0; k < ids.size(); ++k)
            warmLines[k] = fleet.router->wait(ids[k]);
        setups.push_back(secondsSince(start));
    }
    net::ShardRouter &router = *fleet.router;
    LineCheck check;
    for (std::size_t k = 0; k < distinct.size(); ++k)
        check.see(distinct[k], warmLines[k]);

    // Untraced: a closed-loop burst for throughput and a paced open
    // loop for latency, alternating in rounds so both sample the
    // whole run (a shared host's speed drifts over tens of seconds).
    // Each phase is sized to the full run time: checking served lines
    // is cheap.  A traced run skips the paced phase for the traced
    // phase.
    constexpr int kRounds = 5;
    const double phaseSeconds = options.seconds;
    const auto burstRound = std::max<std::size_t>(
        1, static_cast<std::size_t>(phaseSeconds / kRounds * kBurstSizing));
    RssSampler rss;
    rss.resume();
    const double cpuStart = selfCpuSeconds() + childrenCpu(*fleet.shards);
    double burstWall = 0.0;
    std::vector<Served> burst, paced;
    Loop loop;
    loop.clients = clients;
    for (int round = 0; round < kRounds; ++round) {
        double wall = 0.0;
        loop.end = loop.first + burstRound;
        for (const Served &job :
             burstPhase(router, check, stream, loop, wall)) {
            burst.push_back(job);
            loop.first = std::max(loop.first, job.index + 1);
        }
        burstWall += wall;
        if (options.trace)
            continue;
        for (const Served &job : pacedPhase(router, check, stream, loop.first,
                                            phaseSeconds / kRounds)) {
            paced.push_back(job);
            loop.first = std::max(loop.first, job.index + 1);
        }
    }
    const double cpu =
        selfCpuSeconds() + childrenCpu(*fleet.shards) - cpuStart;
    rss.pause();
    double peakRss = rss.peakMb();
    std::string perProcess = "client " + std::to_string(peakRss);
    for (const pid_t pid : fleet.shards->pids()) {
        peakRss += childPeakRssMb(pid);
        perProcess += ", shard " + std::to_string(childPeakRssMb(pid));
    }
    note("peak resident MiB: %s", perProcess.c_str());

    std::size_t burstDone = 0, completed = 0;
    std::vector<double> latencies, burstLatencies, lateness;
    for (const Served &job : burst) {
        ++report.attempted;
        if (job.failed) {
            ++report.failed;
            continue;
        }
        ++burstDone;
        burstLatencies.push_back(job.latency);
    }
    for (const Served &job : paced) {
        ++report.attempted;
        if (job.failed) {
            ++report.failed;
            continue;
        }
        latencies.push_back(job.latency * 1e3);
        lateness.push_back(job.lateness * 1e3);
    }
    completed = burstDone + latencies.size();
    const Tail tail = latencyTail(latencies);

    // Per distinct request: the served result, checked below.
    std::vector<api::Result> served;
    for (const std::string &line : warmLines)
        served.push_back(api::resultFromJson(line));
    std::vector<double> gains;
    for (const api::Result &result : served)
        gains.push_back(result.pstMitigated / result.pstRaw);
    const double gain = geometricMean(gains);

    report.endToEnd = {
        {"setup_s", median(setups)},
        {"jobs_per_s", burstDone / burstWall},
        {"cpu_ms_per_job", cpu * 1e3 / std::max<std::size_t>(completed, 1)},
        {"peak_rss_mb", peakRss},
        {"pst_gain_gmean", gain},
    };
    if (!options.trace) {
        report.endToEnd["latency_p50_ms"] = median(latencies);
        report.endToEnd["latency_tail_ms"] = tail.value;
    }
    note("setup_s over %d set-ups: %.4f .. %.4f s", kSetups,
         percentile(setups, 0), percentile(setups, 100));
    note("burst: %d client(s), %zu requests in %d rounds, %.3f s", clients,
         burstDone, kRounds, burstWall);
    if (!options.trace)
        note("paced: %.0f requests/s, %zu requests; latency tail is p%.1f "
             "over %zu samples (%zu beyond); generator lateness p50 %.3f ms, "
             "max %.3f ms",
             kPacedRate, latencies.size(), tail.percentile, tail.samples,
             tail.beyond, median(lateness), percentile(lateness, 100.0));

    // Traced phase: same router, same warm caches.
    Tracer tracer;
    std::vector<Served> traced;
    ShardCounters countersBefore, countersAfter;
    net::RouterStats routerBefore, routerAfter;
    if (options.trace) {
        countersBefore = shardCounters(router);
        routerBefore = router.stats();
        traced = tracedPhase(tracer, router, check, stream, clients,
                             phaseSeconds);
        routerAfter = router.stats();
        countersAfter = shardCounters(router);
    }
    fleet.close();

    // Correctness: every distinct served line against a serial
    // Pipeline::run of its request, by canonical digest.
    const std::vector<api::Result> refs = referenceRuns(distinct);
    std::map<std::string, std::uint64_t> refDigest;
    std::vector<double> refGains;
    for (std::size_t k = 0; k < distinct.size(); ++k) {
        refDigest[distinct[k]] =
            common::fnv1a64(api::canonicalResultJson(refs[k].json()));
        refGains.push_back(refs[k].pstMitigated / refs[k].pstRaw);
    }
    for (const auto &[request, line] : check.lines())
        if (common::fnv1a64(api::canonicalResultJson(line)) !=
            refDigest.at(request))
            report.mismatch("served result for '" + request +
                            "' differs from Pipeline::run");
    if (geometricMean(refGains) != gain)
        report.mismatch("pst_gain_gmean differs from Pipeline::run's");
    note("checked %zu distinct served line(s) of %zu request(s) against "
         "serial Pipeline::run",
         check.lines().size(), distinct.size());

    if (!options.trace)
        return;

    tracer.write(options.workDir + "/trace-" + options.workload + ".json");
    const SpanSummary spans = summarize(tracer.spans());
    Metrics &layer = report.perLayer;
    std::vector<ExecutedJob> executed;
    for (std::size_t k = 0; k < served.size(); ++k)
        executed.push_back(executedJob(served[k], *refs[k].workload, nullptr));
    executedLayerMetrics(executed, layer);

    std::vector<double> roundtrips, tracedWall;
    double wire = 0.0;
    for (const Served &job : traced) {
        ++report.attempted;
        if (job.failed) {
            ++report.failed;
            continue;
        }
        roundtrips.push_back(job.roundtrip * 1e3);
        tracedWall.push_back(job.wall);
        wire += job.wireBytes;
    }
    const double n = std::max<std::size_t>(tracedWall.size(), 1);
    auto share = [&](const char *name) {
        return spans.jobWall > 0.0 ? spans.layerSeconds(name) / spans.jobWall
                                   : 0.0;
    };
    auto durations = [&](const char *name) { return spans.durations(name); };

    // Shard-side compute during the traced phase, split over the
    // layers by the executed requests' own timing rows.
    double rows = 0.0, buildRows = 0.0, noiseRows = 0.0;
    double mitigateRows = 0.0, scoreRows = 0.0, pairOps = 0.0;
    for (const ExecutedJob &job : executed) {
        buildRows += job.build;
        noiseRows += job.standup + job.sample;
        mitigateRows += job.mitigate;
        scoreRows += job.score;
        pairOps += job.pairOps;
    }
    rows = buildRows + noiseRows + mitigateRows + scoreRows;
    const double shardBusy = countersAfter.busy - countersBefore.busy;
    auto shardSeconds = [&](double part) {
        return rows > 0.0 ? shardBusy * part / rows : 0.0;
    };
    auto shardShare = [&](double part) {
        return spans.jobWall > 0.0 ? shardSeconds(part) / spans.jobWall : 0.0;
    };
    const double executeRuns =
        countersAfter.executeRuns - countersBefore.executeRuns;
    // Kernels run only for requests the shards executed, not for
    // those served from cache.
    layer["sim.bytes_computed_per_job"] *= executeRuns / n;
    layer["core.mitigate_s_sum"] = shardSeconds(mitigateRows);
    layer["core.pair_ops"] = pairOps;
    layer["core.self_share"] = shardShare(mitigateRows);
    layer["noise.sample_s_sum"] = shardSeconds(noiseRows);
    layer["noise.self_share"] = shardShare(noiseRows);
    layer["circuits.build_s_sum"] = shardSeconds(buildRows);
    layer["circuits.self_share"] = shardShare(buildRows);

    const std::vector<double> encodes = durations("Result::json");
    double encodedBytes = 0.0;
    for (const api::Result &result : served)
        encodedBytes += result.json().size();
    const double bytesMean = encodedBytes / std::max<std::size_t>(served.size(), 1);
    layer["api.encode_ms_p50"] = median(encodes) * 1e3;
    layer["api.encode_bytes_mean"] = bytesMean;
    layer["api.encode_mb_per_s"] =
        sum(encodes) > 0.0 ? bytesMean * encodes.size() / sum(encodes) / 1e6
                           : 0.0;
    layer["api.decode_ms_p50"] = median(durations("resultFromJson")) * 1e3;
    layer["api.canonical_ms_p50"] =
        median(durations("canonicalResultJson")) * 1e3;
    layer["api.parse_us_p50"] = median(durations("parseSpecLine")) * 1e6;
    const double submitted =
        std::max(countersAfter.submitted - countersBefore.submitted, 1.0);
    layer["api.result_cache_hit_ratio"] =
        (countersAfter.resultCacheHits - countersBefore.resultCacheHits) /
        submitted;
    layer["api.coalesced_ratio"] =
        (countersAfter.coalesced - countersBefore.coalesced) / submitted;
    layer["api.execute_runs"] = executeRuns;
    layer["api.busy_s"] = shardBusy;
    layer["api.self_share"] = share("api");
    layer["plan.estimate_us_p50"] = median(durations("estimateSpecCost")) * 1e6;
    layer["plan.predicted_over_measured"] =
        countersAfter.measured > 0.0
            ? countersAfter.predicted / countersAfter.measured
            : 0.0;

    layer["net.submit_us_p50"] =
        median(durations("ShardRouter::submit")) * 1e6;
    layer["net.roundtrip_ms_p50"] = median(roundtrips);
    layer["net.wire_bytes_per_job"] = wire / n;
    layer["net.router_busy_s"] = routerAfter.busySeconds - routerBefore.busySeconds;
    double shardBusyMax = 0.0;
    for (std::size_t shard = 0; shard < countersAfter.shardBusy.size(); ++shard)
        shardBusyMax = std::max(shardBusyMax,
                                countersAfter.shardBusy[shard] -
                                    countersBefore.shardBusy[shard]);
    layer["net.shard_busy_s_max"] = shardBusyMax;
    layer["net.self_share"] = share("net");
    layer["net.dispatched"] =
        static_cast<double>(routerAfter.dispatched - routerBefore.dispatched);
    layer["net.retries"] =
        static_cast<double>(routerAfter.retries - routerBefore.retries);

    layer["trace.overhead_ratio"] =
        mean(burstLatencies) > 0.0 ? mean(tracedWall) / mean(burstLatencies)
                                   : 0.0;
    layer["trace.untraced_share"] =
        spans.jobWall > 0.0 ? (spans.jobWall - spans.childWall) / spans.jobWall
                            : 0.0;
    note("traced phase: %zu requests, %zu spans", tracedWall.size(),
         spans.spans.size());
}

} // namespace perfbench
