/**
 * @file
 * ShardRouter + ShardWorker integration over Unix-domain sockets:
 * sharded campaigns are bit-identical to local ExecutionService runs
 * (via api::canonicalResultJson), routing is cache-affine, failures
 * propagate as typed errors, and seeded FaultPlan campaigns — lost
 * sends, lost responses, a real mid-campaign shard death — complete
 * with bit-identical results and replayable decisions.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/service.hpp"
#include "chaos/fault_plan.hpp"
#include "net/router.hpp"
#include "net/shard_worker.hpp"

namespace {

using hammer::api::canonicalResultJson;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::parseJson;
using hammer::api::parseSpecLine;
using hammer::api::SpecLine;
using hammer::chaos::FaultPlan;
using hammer::chaos::FaultPlanOptions;
using hammer::net::RemoteJobError;
using hammer::net::RouterError;
using hammer::net::ShardRouter;
using hammer::net::ShardRouterOptions;
using hammer::net::ShardWorker;
using hammer::net::ShardWorkerOptions;

/** N in-process shard workers on Unix sockets in a fresh temp dir. */
class Fleet
{
  public:
    explicit Fleet(int count)
    {
        char tmpl[] = "/tmp/hammer_net_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir;
        for (int i = 0; i < count; ++i) {
            workers_.push_back(std::make_unique<ShardWorker>(
                "unix:" + dir_ + "/s" + std::to_string(i) +
                    ".sock",
                ShardWorkerOptions{}));
            threads_.emplace_back(
                [worker = workers_.back().get()] {
                    worker->run();
                });
        }
    }

    ~Fleet()
    {
        for (auto &worker : workers_)
            worker->stop();
        for (auto &thread : threads_)
            thread.join();
        ::rmdir(dir_.c_str());
    }

    std::vector<std::string> addresses() const
    {
        std::vector<std::string> out;
        for (const auto &worker : workers_)
            out.push_back(worker->address());
        return out;
    }

    ShardWorker &worker(int index) { return *workers_[index]; }

  private:
    std::string dir_;
    std::vector<std::unique_ptr<ShardWorker>> workers_;
    std::vector<std::thread> threads_;
};

/** A repeat-heavy campaign: JSON + CSV lines, duplicates included. */
std::vector<std::string>
campaignLines()
{
    std::vector<std::string> lines;
    for (int seed = 1; seed <= 4; ++seed) {
        lines.push_back(
            "{\"workload\": \"bv:5\", \"backend\": \"channel\", "
            "\"shots\": 256, \"seed\": " +
            std::to_string(seed) + "}");
        lines.push_back("ghz:4,channel,256," +
                        std::to_string(seed));
    }
    // Duplicates: the affinity + caching traffic.
    for (int repeat = 0; repeat < 4; ++repeat) {
        lines.push_back("bv:5,channel,256,1");
        lines.push_back("ghz:4,channel,256,2,readout+hammer");
    }
    return lines;
}

/** Canonical forms of a local (in-process) run over @p lines. */
std::vector<std::string>
localCanonical(const std::vector<std::string> &lines)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (const std::string &line : lines) {
        const SpecLine parsed = parseSpecLine(line);
        handles.push_back(
            service.submit(parsed.spec, parsed.priority));
    }
    std::vector<std::string> out;
    for (const auto &handle : handles)
        out.push_back(canonicalResultJson(
            service.wait(handle).json(-1)));
    return out;
}

std::vector<std::string>
canonical(const std::vector<std::string> &result_lines)
{
    std::vector<std::string> out;
    for (const std::string &line : result_lines)
        out.push_back(canonicalResultJson(line));
    return out;
}

TEST(ShardRouter, ShardedCampaignBitIdenticalToLocalService)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    ShardRouter router{options};
    const auto got = canonical(router.runMany(lines));

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "line " << i;

    const auto stats = router.stats();
    EXPECT_EQ(stats.submitted, lines.size());
    EXPECT_EQ(stats.resultsReceived, lines.size());
    EXPECT_EQ(stats.retries, 0u);
}

TEST(ShardRouter, RoutesIdenticalExecutionsToOneShard)
{
    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    ShardRouter router{options};

    // Six identical executions: affinity must put every one on the
    // same shard, where the service's coalescing/result cache makes
    // the sample stage run exactly once fleet-wide.
    std::vector<std::string> lines(6, "bv:5,channel,256,11");
    router.runMany(lines);

    std::uint64_t total_runs = 0;
    std::uint64_t total_submitted = 0;
    int shards_used = 0;
    for (std::size_t i = 0; i < router.shardCount(); ++i) {
        const auto stats = parseJson(router.fetchStats(i));
        EXPECT_EQ(stats.at("type").asString(), "service_stats");
        const auto submitted =
            static_cast<std::uint64_t>(
                stats.at("submitted").asNumber());
        total_submitted += submitted;
        total_runs += static_cast<std::uint64_t>(
            stats.at("execute_runs").asNumber());
        if (submitted > 0)
            ++shards_used;
    }
    EXPECT_EQ(total_submitted, 6u);
    EXPECT_EQ(shards_used, 1) << "affinity: one exec key, one shard";
    EXPECT_EQ(total_runs, 1u)
        << "the shard's caches must collapse the repeats";
}

TEST(ShardRouter, PropagatesRemoteFailuresAsTypedErrors)
{
    Fleet fleet(1);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    ShardRouter router{options};

    // Parses locally, fails remotely (no such workload family).
    const std::uint64_t id =
        router.submit("nosuchfamily:5,channel,64,1");
    try {
        router.wait(id);
        FAIL() << "expected RemoteJobError";
    } catch (const RemoteJobError &error) {
        EXPECT_EQ(error.kind(), "invalid_argument")
            << error.what();
    }

    // Malformed lines fail at the local boundary and never consume
    // a dispatch.
    EXPECT_THROW(router.submit("bv:5,channel,notanumber"),
                 std::invalid_argument);
    EXPECT_EQ(router.stats().dispatched, 1u);

    // The fleet stays healthy after both failure shapes.
    const auto ok = router.runMany({"bv:4,channel,128,1"});
    EXPECT_EQ(canonical(ok),
              localCanonical({"bv:4,channel,128,1"}));
}

TEST(ShardRouterChaos, LostResponsesReplayDeterministically)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    // Two same-seed campaigns: recv-kills only, heartbeats off, so
    // the (id, attempt) fault-consultation sequence — and therefore
    // every router decision — is a pure function of the seed.
    hammer::net::RouterStats runs[2];
    for (int run = 0; run < 2; ++run) {
        FaultPlanOptions faults;
        faults.shardRecvKillRate = 0.25;
        Fleet fleet(2);
        ShardRouterOptions options;
        options.addresses = fleet.addresses();
        options.faultInjector =
            std::make_shared<FaultPlan>(909, faults);
        ShardRouter router{options};
        const auto got = canonical(router.runMany(lines));
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], expected[i])
                << "run " << run << " line " << i;
        runs[run] = router.stats();
        EXPECT_GT(runs[run].recvDropped, 0u)
            << "the plan must actually lose responses";
        EXPECT_EQ(runs[run].retries, runs[run].recvDropped)
            << "each lost response costs exactly one re-dispatch";
    }
    EXPECT_EQ(runs[0].recvDropped, runs[1].recvDropped);
    EXPECT_EQ(runs[0].retries, runs[1].retries);
    EXPECT_EQ(runs[0].dispatched, runs[1].dispatched);
}

TEST(ShardRouterChaos, LostSendsRerouteBitIdentically)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    FaultPlanOptions faults;
    faults.shardSendKillRate = 0.2;
    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    options.faultInjector = std::make_shared<FaultPlan>(4242, faults);
    ShardRouter router{options};

    const auto got = canonical(router.runMany(lines));
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "line " << i;

    const auto stats = router.stats();
    EXPECT_GT(stats.shardDeaths, 0u)
        << "the plan must actually kill connections";
    EXPECT_GT(stats.reconnects, 0u)
        << "killed connections must come back";
}

TEST(ShardRouterChaos, RealShardDeathMidCampaignReroutes)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    // The dead shard never comes back: keep the reconnect probe
    // cheap so rerouting is fast.
    options.reconnectAttempts = 2;
    options.reconnectDelayMs = 5;
    ShardRouter router{options};

    std::vector<std::uint64_t> ids;
    for (const std::string &line : lines)
        ids.push_back(router.submit(line));
    fleet.worker(1).stop(); // Mid-campaign, jobs in flight.

    std::vector<std::string> got;
    for (const std::uint64_t id : ids)
        got.push_back(canonicalResultJson(router.wait(id)));

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "line " << i;
}

TEST(ShardRouter, WaitReleasesEveryJob)
{
    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    ShardRouter router{options};

    // Submit/wait pairs: nothing of a waited-on job stays behind.
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t id = router.submit(
            "bv:4,channel,128," + std::to_string(i % 3 + 1));
        EXPECT_FALSE(router.wait(id).empty());
        EXPECT_EQ(router.stats().jobsHeld, 0u);
        // One id is waited on once; the second wait is typed.
        EXPECT_THROW(router.wait(id), RouterError);
    }

    // A batch is held until each of its jobs is waited on.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(router.submit("ghz:4,channel,128," +
                                    std::to_string(i % 4 + 1)));
    EXPECT_EQ(router.stats().jobsHeld, 8u);
    for (const std::uint64_t id : ids)
        router.wait(id);
    EXPECT_EQ(router.stats().jobsHeld, 0u);

    // Failed jobs are released too.
    const std::uint64_t failing = router.submit("bv:4,nosuchbackend");
    EXPECT_THROW(router.wait(failing), RemoteJobError);
    EXPECT_EQ(router.stats().jobsHeld, 0u);
    EXPECT_THROW(router.wait(failing), RouterError);

    EXPECT_THROW(router.wait(1u << 20), RouterError); // never issued
    EXPECT_EQ(router.stats().lateReplies, 0u);
}

TEST(ShardRouter, LateReplyForAReleasedJobIsDroppedAndCounted)
{
    char tmpl[] = "/tmp/hammer_net_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    hammer::net::Listener listener(std::string("unix:") + dir +
                                   "/late.sock");

    // A scripted shard that answers each Submit twice: once at once,
    // once more after the router released the job.
    std::promise<void> released;
    std::thread shard([&] {
        hammer::net::Socket conn = listener.accept();
        try {
            while (auto frame = hammer::net::readFrame(conn)) {
                if (frame->type != hammer::net::FrameType::Submit)
                    continue;
                const auto job =
                    hammer::net::parseJobPayload(frame->payload);
                const hammer::net::Frame reply{
                    hammer::net::FrameType::Result,
                    hammer::net::encodeJobPayload(
                        job.id, job.attempt,
                        hammer::api::Pipeline()
                            .run(parseSpecLine(job.body).spec)
                            .json(-1))};
                hammer::net::writeFrame(conn, reply);
                released.get_future().wait();
                hammer::net::writeFrame(conn, reply);
            }
        } catch (const hammer::net::WireError &) {
            // The router hung up.
        }
    });

    {
        ShardRouterOptions options;
        options.addresses = {listener.address()};
        ShardRouter router{options};
        const std::uint64_t id = router.submit("bv:4,channel,128,1");
        const std::string line = router.wait(id);
        EXPECT_EQ(parseJson(line).at("workload").asString(), "bv:4");
        released.set_value();

        // The duplicate reaches a router that no longer holds the job:
        // dropped, counted, and the reader carries on.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (router.stats().lateReplies == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        EXPECT_EQ(router.stats().lateReplies, 1u);
        EXPECT_EQ(router.stats().resultsReceived, 1u);
        EXPECT_EQ(router.stats().jobsHeld, 0u);
        EXPECT_THROW(router.wait(id), RouterError);
    }
    shard.join();
    listener.close();
    ::rmdir(dir);
}

TEST(ShardRouter, ShutdownShardsDrainsTheFleet)
{
    auto fleet = std::make_unique<Fleet>(2);
    ShardRouterOptions options;
    options.addresses = fleet->addresses();
    ShardRouter router{options};
    router.runMany({"bv:4,channel,128,1", "ghz:4,channel,128,2"});
    router.shutdownShards();
    // run() exits on the Shutdown frame; the Fleet destructor's
    // stop() + join() then completes promptly instead of timing the
    // test out.
    fleet.reset();
}

} // namespace
