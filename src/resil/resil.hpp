/**
 * @file
 * hammer::resil — the resilience *policy* layer for the serving
 * stack: circuit breakers, retry budgets, and the typed errors they
 * surface.
 *
 * The serving stack can already *detect* failures (fault seams,
 * heartbeats, idempotent re-dispatch); this module decides what to
 * do about them.  Two primitives:
 *
 *   CircuitBreaker  per-endpoint closed → open → half-open state
 *                   machine with deterministic jittered exponential
 *                   backoff, so a flapping shard is probed at a
 *                   widening cadence instead of hammered at full
 *                   retry cost;
 *
 *   RetryBudget     a token bucket bounding the *global* retry rate
 *                   of a traffic class, so correlated failures
 *                   (every job retrying at once) degrade to typed
 *                   errors instead of retry storms.
 *
 * Both are deterministic by construction, extending the chaos
 * contract established by chaos::FaultPlan: every decision is a
 * pure function of the inputs handed to it — the breaker's backoff
 * jitter derives from common::Rng::fork over (seed, endpoint,
 * episode), never from wall-clock entropy, and the budget is a
 * clock-free counter.  A same-seed campaign that replays the same
 * failure sequence replays every breaker transition and every
 * budget decision bit-identically, regardless of thread scheduling.
 *
 * Neither class is internally synchronized: callers (ShardRouter,
 * ExecutionService) consult them under their own locks.
 */

#ifndef HAMMER_RESIL_RESIL_HPP
#define HAMMER_RESIL_RESIL_HPP

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace hammer::resil {

/**
 * A retry was denied because the traffic class's token bucket ran
 * dry.  Thrown by ExecutionService::wait (local jobs) and
 * ShardRouter::wait (sharded jobs); catching it tells the caller the
 * *policy* gave up, not that the job itself is poisoned — the spec
 * may succeed verbatim once the fleet recovers.
 */
class RetryBudgetExhaustedError : public std::runtime_error
{
  public:
    RetryBudgetExhaustedError(std::string where, int attempts)
        : std::runtime_error("hammer::resil: retry budget exhausted "
                             "in " +
                             where + " after " +
                             std::to_string(attempts) + " attempt(s)"),
          attempts_(attempts)
    {
    }

    int attempts() const { return attempts_; }

  private:
    int attempts_;
};

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

/** Tuning knobs for one CircuitBreaker. */
struct CircuitBreakerOptions
{
    /** Consecutive failures that trip Closed → Open. */
    int failureThreshold = 3;

    /**
     * Base backoff for the first open episode, in milliseconds.
     * Episode k waits base * 2^min(k-1, maxBackoffDoublings),
     * scaled by the jitter draw.  Zero makes every open interval
     * elapse immediately — breaker decisions become purely
     * sequence-driven, which is what replay-determinism tests use
     * (the same trick as disabling heartbeats in chaos tests).
     */
    double backoffBaseMs = 50.0;

    /** Cap on the exponential (episode growth stops doubling). */
    int maxBackoffDoublings = 6;

    /**
     * Seed for the jitter stream.  The draw for episode e of
     * endpoint n forks on fnv1a(endpoint, episode), so every
     * (seed, endpoint, episode) triple maps to one fixed jitter in
     * [0.5, 1.5) — replayable across runs and immune to the order
     * breakers trip in.
     */
    std::uint64_t seed = 0;

    /** Identifies the endpoint (shard index) in the jitter stream. */
    std::uint64_t endpoint = 0;
};

/**
 * Closed → Open → HalfOpen circuit breaker, externally clocked.
 *
 * Every method takes `now` as a parameter instead of reading a
 * clock, so tests drive a logical clock and production callers pass
 * steady_clock::now().  State transitions:
 *
 *   Closed    requests flow; `failureThreshold` *consecutive*
 *             failures trip to Open (any success resets the streak).
 *   Open      requests are refused until the episode's backoff
 *             interval elapses, then the breaker moves to HalfOpen.
 *   HalfOpen  exactly one probe request is allowed through; its
 *             success closes the breaker, its failure re-opens it
 *             with the next (longer) backoff episode.
 */
class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    using Clock = std::chrono::steady_clock;

    explicit CircuitBreaker(CircuitBreakerOptions options = {});

    /**
     * May a request be sent now?  Open breakers whose backoff has
     * elapsed transition to HalfOpen here and admit the single
     * probe; subsequent calls in HalfOpen refuse until the probe's
     * outcome is reported.
     */
    bool allowRequest(Clock::time_point now);

    /** Report a request outcome (success closes, failure trips). */
    void onSuccess();
    void onFailure(Clock::time_point now);

    State state() const { return state_; }

    /** Open episodes so far (1 after the first trip). */
    int episodes() const { return episodes_; }

    /**
     * The backoff interval for open episode @p episode (1-based),
     * in milliseconds, jitter included.  Pure function of
     * (options.seed, options.endpoint, episode) — exposed so tests
     * can assert the replayed schedule.
     */
    double backoffMs(int episode) const;

  private:
    CircuitBreakerOptions options_;
    State state_ = State::Closed;
    int consecutiveFailures_ = 0;
    int episodes_ = 0;
    bool probeInFlight_ = false;
    Clock::time_point openedAt_{};
};

// ---------------------------------------------------------------------------
// RetryBudget
// ---------------------------------------------------------------------------

/** Tuning knobs for one RetryBudget token bucket. */
struct RetryBudgetOptions
{
    /** Tokens in the bucket at construction. */
    double initialTokens = 16.0;

    /** Tokens deposited per admitted (first-attempt) request. */
    double tokensPerDeposit = 0.1;

    /** Bucket capacity (deposits saturate here). */
    double maxTokens = 64.0;

    /** Tokens one retry withdraws. */
    double tokensPerRetry = 1.0;
};

/**
 * Clock-free token bucket bounding a traffic class's retry rate.
 *
 * Callers deposit() once per admitted request and tryWithdraw()
 * once per retry; when the bucket cannot cover a withdrawal the
 * retry is denied and the caller surfaces
 * RetryBudgetExhaustedError.  Under healthy traffic the bucket
 * saturates and retries are free; under correlated failure the
 * budget caps total retry work at roughly
 * tokensPerDeposit / tokensPerRetry of the request rate.
 *
 * Deliberately time-free: refill rides on request admission, not on
 * a clock, so identical request/failure sequences make identical
 * decisions — the same determinism contract as the breaker.
 */
class RetryBudget
{
  public:
    explicit RetryBudget(RetryBudgetOptions options = {});

    /** Credit for one admitted request. */
    void deposit();

    /** Debit one retry; false when the bucket cannot cover it. */
    bool tryWithdraw();

    double tokens() const { return tokens_; }

    /** Count of denied withdrawals so far. */
    std::uint64_t denied() const { return denied_; }

  private:
    RetryBudgetOptions options_;
    double tokens_;
    std::uint64_t denied_ = 0;
};

} // namespace hammer::resil

#endif // HAMMER_RESIL_RESIL_HPP
