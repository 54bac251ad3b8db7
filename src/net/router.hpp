/**
 * @file
 * hammer::net — the shard router: one client-side front over a fleet
 * of ShardWorkers.
 *
 * A ShardRouter owns one framed connection per shard address and
 * routes each submitted spec line by hashing its canonical execution
 * key (api::canonicalExecKey): identical executions always land on
 * the same shard, so the fleet's result/exec caches and in-flight
 * coalescing keep their full hit rates — cache affinity is the whole
 * point of hashing by exec key rather than round-robin.  A key the
 * router has *never* seen has no cache to protect yet, so its home
 * shard is picked by estimated cost (api::estimateSpecCost): the
 * less loaded of the key's two hash candidates, remembered in an
 * affinity map so later repeats still coalesce.
 *
 * Failure semantics (the distributed mirror of ExecutionService's):
 *
 *   - every dispatch is idempotent — a job is a (id, attempt) pair
 *     carrying the verbatim spec line, and re-running a spec anywhere
 *     yields a bit-identical Result (the serving stack's core
 *     determinism guarantee), so replays are always safe;
 *   - a dead/unreachable shard is detected at send, at recv (reader
 *     EOF/error) or by heartbeat timeout; its pending jobs re-route
 *     to the next shard in hash order ((hash + attempt) % n) after a
 *     bounded reconnect budget;
 *   - a lost response re-dispatches just that job at attempt + 1;
 *   - attempts are bounded (maxAttempts); exhaustion surfaces as
 *     RouterError from wait(), never a hang.
 *
 * Chaos seams: FaultSite::ShardSend is consulted once per dispatch
 * attempt (key = id * 8 + attempt * 2, before any liveness check, so
 * same-seed replays consult an identical key sequence) and
 * FaultSite::ShardRecv once per received job frame
 * (key = id * 8 + attempt * 2 + 1).  Kill at send simulates a
 * connection death; Kill at recv a lost response.
 *
 * Results come back as verbatim Result::writeJson lines; merge order
 * is the caller's submit order (runMany returns lines in input
 * order), so a router campaign's output is byte-comparable to a
 * local --serve run via api::canonicalResultJson.
 */

#ifndef HAMMER_NET_ROUTER_HPP
#define HAMMER_NET_ROUTER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "resil/resil.hpp"

namespace hammer::net {

/** Routing/transport failure the router itself produced. */
class RouterError : public std::runtime_error
{
  public:
    explicit RouterError(const std::string &what)
        : std::runtime_error("hammer::net: " + what)
    {
    }
};

/**
 * A shard answered with an Error frame: the job itself failed
 * remotely (bad spec, worker lost beyond the shard's retries, ...).
 * kind() is the shard's typed failure class ("invalid_argument",
 * "worker_lost", "service", "internal").
 */
class RemoteJobError final : public RouterError
{
  public:
    RemoteJobError(std::string kind, const std::string &message)
        : RouterError("remote job failed (" + kind + "): " + message),
          kind_(std::move(kind))
    {
    }

    const std::string &kind() const { return kind_; }

  private:
    std::string kind_;
};

/**
 * Every shard's circuit breaker refused the dispatch — a fleet-wide
 * outage as the breakers see it.  Thrown by wait() instead of
 * burning the full reconnect/attempt budget.
 */
class BreakerOpenError final : public RouterError
{
  public:
    explicit BreakerOpenError(const std::string &what)
        : RouterError(what)
    {
    }
};

/** Tuning knobs of one ShardRouter. */
struct ShardRouterOptions
{
    /** Shard addresses (connectTo syntax), fixed for the lifetime. */
    std::vector<std::string> addresses;

    /**
     * Dispatch attempts per job before wait() fails with
     * RouterError.  Attempt k routes to shard (hash + k) % n, so the
     * budget must cover at least one full rotation to survive a
     * single dead shard.
     */
    int maxAttempts = 8;

    /**
     * Connect attempts inside one dispatch before the shard is
     * treated as unreachable for that attempt.  Generous by default:
     * an injected send-kill drops a healthy connection, and replay
     * determinism wants the non-killed retry to succeed.
     */
    int reconnectAttempts = 25;

    /** Sleep between reconnect attempts (milliseconds). */
    int reconnectDelayMs = 10;

    /** connect() deadline per attempt (milliseconds). */
    int connectTimeoutMs = 5000;

    /**
     * Heartbeat probe interval (milliseconds; 0 disables the
     * monitor thread).  A shard whose last ack is older than
     * interval + heartbeatTimeoutMs is declared dead and its pending
     * jobs re-route.  Chaos replay tests disable heartbeats: probe
     * timing is wall-clock, not seed-determined.
     */
    int heartbeatIntervalMs = 0;

    /** Grace beyond the interval before a silent shard is dead. */
    int heartbeatTimeoutMs = 1000;

    /** Per-connection recv timeout (milliseconds; 0 = none). */
    int recvTimeoutMs = 0;

    /** Payload bound handed to readFrame. */
    std::size_t maxFramePayload = kMaxFramePayload;

    /**
     * Circuit breakers: consecutive failures (send failures, shard
     * deaths) that open one shard's breaker; 0 disables breakers
     * entirely (the pre-resil behaviour).  An open shard is skipped
     * during dispatch rotation; when every shard's breaker refuses,
     * the job fails fast with BreakerOpenError instead of burning
     * the reconnect budget against a fleet-wide outage.
     */
    int breakerFailureThreshold = 0;

    /**
     * Base backoff of a breaker's first open episode (ms); episode k
     * waits base * 2^min(k-1, breakerMaxBackoffDoublings) scaled by
     * a deterministic jitter in [0.5, 1.5).  Zero makes breaker
     * decisions purely sequence-driven — what replay-determinism
     * tests use, the same trick as disabling heartbeats.
     */
    double breakerBackoffBaseMs = 50.0;
    int breakerMaxBackoffDoublings = 6;

    /**
     * Seed of the breakers' jitter streams: every backoff interval
     * is a pure function of (seed, shard, episode) via Rng::fork, so
     * same-seed campaigns replay the probe schedule bit-identically.
     */
    std::uint64_t breakerSeed = 0;

    /**
     * Global retry budget across all jobs (off by default): each
     * submit deposits, each re-dispatch withdraws, and a denied
     * withdrawal fails the job with RetryBudgetExhaustedError — the
     * cap that turns a correlated-failure retry storm into typed
     * errors.
     */
    bool retryBudget = false;
    resil::RetryBudgetOptions retryBudgetOptions;

    /**
     * Entries kept in the sticky exec-key -> shard affinity map
     * (true LRU: the coldest key is evicted, the warm working set
     * keeps its cache affinity).  Minimum 1.
     */
    std::size_t affinityCapacity = 65536;

    /** Chaos seam (ShardSend/ShardRecv sites); null in production. */
    std::shared_ptr<common::FaultInjector> faultInjector;
};

/** Observability counters of one ShardRouter. */
struct RouterStats
{
    std::uint64_t submitted = 0;   ///< Jobs accepted by submit().
    std::uint64_t dispatched = 0;  ///< Submit frames sent (all attempts).
    std::uint64_t retries = 0;     ///< Dispatches at attempt > 0.
    std::uint64_t reroutes = 0;    ///< Pending jobs moved off a dead shard.
    std::uint64_t shardDeaths = 0; ///< Connections declared dead.
    std::uint64_t reconnects = 0;  ///< Successful re-connects (gen > 1).
    std::uint64_t recvDropped = 0; ///< Injected lost responses.
    std::uint64_t resultsReceived = 0; ///< Result frames accepted.
    std::uint64_t errorsReceived = 0;  ///< Error frames accepted.
    std::uint64_t heartbeatsSent = 0;  ///< Probes written.

    /**
     * Result/Error frames for a job wait() had already released
     * (a late duplicate of a re-dispatched job): dropped.
     */
    std::uint64_t lateReplies = 0;

    /** Jobs in the table at snapshot time: submitted, not waited. */
    std::uint64_t jobsHeld = 0;

    /**
     * Never-seen exec keys whose home shard was steered off the pure
     * hash slot because the alternative candidate carried less
     * estimated pending cost (cost-aware admission at the fleet
     * level).
     */
    std::uint64_t costSteered = 0;

    // Resilience-policy counters (all zero when breakers/budgets
    // are disabled).
    std::uint64_t breakerTrips = 0;   ///< Transitions to Open (incl. reopens).
    std::uint64_t breakerSkips = 0;   ///< Dispatch attempts an open breaker refused.
    std::uint64_t breakerProbes = 0;  ///< Half-open probes admitted.
    std::uint64_t breakerProbesDenied = 0; ///< Probes the chaos seam denied.
    std::uint64_t breakerFastFails = 0;    ///< Jobs failed with every breaker open.
    std::uint64_t retryBudgetExhausted = 0; ///< Jobs failed by budget denial.
    std::uint64_t affinityEvictions = 0;    ///< Affinity LRU evictions.

    /**
     * Wall-clock seconds the router spent on its serial per-job work
     * (spec parsing + affinity hashing).  The router-side term of
     * bench_shard_throughput's critical-path model.
     */
    double busySeconds = 0.0;
};

/**
 * Client-side router over N ShardWorkers.
 *
 * Thread-safe: submit/wait/runMany/stats may be called from any
 * thread.  Connections are lazy (first dispatch to a shard
 * connects), and the destructor stops the heartbeat monitor, closes
 * every connection and joins every reader thread.
 */
class ShardRouter
{
  public:
    /** @throws std::invalid_argument when no addresses are given. */
    explicit ShardRouter(ShardRouterOptions options);

    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /** Shard count. */
    std::size_t shardCount() const { return shards_.size(); }

    /**
     * Route one protocol line (api::parseSpecLine grammar) to its
     * shard; returns the router-assigned job id.
     *
     * The line is parsed locally first: malformed lines throw
     * std::invalid_argument here, at the boundary, and never reach a
     * shard.  Valid lines travel verbatim, so the shard's parse is
     * byte-identical to a local --serve parse.
     */
    std::uint64_t submit(const std::string &line);

    /**
     * Block until job @p id completes; returns the shard's verbatim
     * Result::writeJson line.  Waiting releases the job: its line is
     * moved out and the router keeps nothing of it, so one id can be
     * waited on once.
     *
     * @throws RemoteJobError when the shard answered with an Error
     *         frame; RouterError when dispatch attempts were
     *         exhausted, the router was stopped, or @p id was already
     *         released (or never issued).
     */
    std::string wait(std::uint64_t id);

    /**
     * Submit every line, then wait in submit order — the
     * deterministic-merge batch entry (output order never depends on
     * which shard answered first).
     */
    std::vector<std::string>
    runMany(const std::vector<std::string> &lines);

    /**
     * Fetch shard @p index's serviceStatsJson line via a
     * StatsRequest round-trip. @throws RouterError on timeout.
     */
    std::string fetchStats(std::size_t index);

    /**
     * Send every connected shard a Shutdown frame (it drains its
     * service and exits run()).  Send failures are ignored — a dead
     * shard is already shut down.
     */
    void shutdownShards();

    /** Counter snapshot. */
    RouterStats stats() const;

  private:
    /** One shard endpoint and its current connection. */
    struct Shard
    {
        std::string address;

        /**
         * Serializes frame writes AND connection management: the
         * holder of writeMutex is the only thread that may
         * (re)connect this shard, so concurrent dispatches can never
         * race two connections into existence.
         */
        std::mutex writeMutex;

        // Connection state below is guarded by the router mutex_.
        // The socket is shared: each reader thread keeps its own
        // reference, so a reconnect can replace conn while the old
        // reader is still draining — the old fd closes when the last
        // reference drops, never under a concurrent recv.
        std::shared_ptr<Socket> conn;
        bool connected = false;
        std::uint64_t generation = 0;
        std::chrono::steady_clock::time_point lastAck{};
        std::string statsReply;
        std::uint64_t statsSeq = 0;
    };

    /** One routed job. */
    struct Job
    {
        enum class State
        {
            Pending,
            Done,
            Failed
        };

        std::string line;
        std::uint64_t hash = 0;
        std::size_t base = 0; ///< Home shard (affinity or least-loaded).
        double cost = 0.0;    ///< Estimated seconds (load accounting).
        int attempt = 0; ///< Next attempt number to dispatch with.
        int shard = -1;  ///< Shard awaiting a response (-1 = none).
        State state = State::Pending;
        std::string resultJson;
        std::string errorKind;
        std::string errorMessage;
    };

    common::FaultAction fault(common::FaultSite site,
                              std::uint64_t key) const;

    /**
     * Report a shard failure to its breaker (no-op when breakers are
     * disabled), counting the trip when the breaker transitions to
     * Open.  Caller holds mutex_.
     */
    void recordBreakerFailure(std::size_t index,
                              std::chrono::steady_clock::time_point
                                  now);

    /**
     * Remember @p hash -> @p shard in the bounded affinity LRU,
     * evicting the coldest key at capacity.  Caller holds mutex_.
     */
    void rememberAffinity(std::uint64_t hash, std::size_t shard);

    /**
     * Drive one job to a dispatched (or terminally failed) state:
     * pick shard (base + attempt) % n, consult the ShardSend seam,
     * connect if needed, send.  Loops over attempts; send failures
     * mark the shard dead and re-route its other pending jobs.
     */
    void dispatchJob(std::uint64_t id);

    /**
     * Settle a job's load accounting: subtract its estimated cost
     * from its home shard's pending total.  Caller holds mutex_;
     * called exactly once, when the job reaches a terminal state.
     */
    void settleJobCost(const Job &job);

    /**
     * Connection for shard @p index, (re)connecting within the
     * reconnect budget; nullptr when unreachable.  Caller holds the
     * shard's writeMutex.
     */
    std::shared_ptr<Socket> ensureConnected(std::size_t index);

    /**
     * Declare shard @p index dead: shut its socket down, collect its
     * pending jobs, re-dispatch them elsewhere.
     */
    void markDead(std::size_t index);

    /** Per-connection reader: drains frames until EOF/error. */
    void readerLoop(std::size_t index, std::uint64_t generation,
                    std::shared_ptr<Socket> conn);

    /** One Result/Error frame: resolve or re-dispatch its job. */
    void handleJobFrame(std::size_t index, FrameType type,
                        const std::string &payload);

    /** Heartbeat monitor body (only runs when the interval is set). */
    void heartbeatLoop();

    const ShardRouterOptions options_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex mutex_;
    std::condition_variable jobsCv_;  ///< Job completions.
    std::condition_variable statsCv_; ///< StatsReply arrivals.
    std::unordered_map<std::uint64_t, Job> jobs_;

    /**
     * exec-key hash -> home shard, bounded by a true LRU
     * (affinityCapacity): affinityLru_ orders keys most-recent
     * first, each map entry holds its list position, and inserting
     * at capacity evicts the back — long campaigns with unbounded
     * distinct keys stay at a fixed footprint while the warm working
     * set keeps its cache affinity.
     */
    struct AffinityEntry
    {
        std::size_t shard = 0;
        std::list<std::uint64_t>::iterator pos;
    };
    std::unordered_map<std::uint64_t, AffinityEntry> affinity_;
    std::list<std::uint64_t> affinityLru_;

    /** Per-shard breakers (empty when disabled); guarded by mutex_. */
    std::vector<resil::CircuitBreaker> breakers_;
    /** Global retry budget (nullopt when off); guarded by mutex_. */
    std::optional<resil::RetryBudget> retryBudget_;
    /** Estimated seconds of unresolved work homed on each shard. */
    std::vector<double> pendingCost_;
    std::uint64_t nextJobId_ = 0;
    RouterStats stats_;
    bool stopping_ = false;

    std::mutex readersMutex_;
    std::vector<std::thread> readers_;

    std::thread heartbeat_;
    std::condition_variable heartbeatCv_; ///< Wakes the monitor early.
};

} // namespace hammer::net

#endif // HAMMER_NET_ROUTER_HPP
