#include "net/shard_worker.hpp"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/socket.h>

namespace hammer::net {

namespace {

ShardWorkerOptions
resolveOptions(ShardWorkerOptions options)
{
    // Never run the service single-threaded on the reader thread: a
    // 1-worker pool executes jobs inline in submit(), which would
    // block Heartbeat acks for the length of every job and make the
    // router declare this shard dead under load.
    if (options.service.workers == 0)
        options.service.workers = 2;
    return options;
}

} // namespace

ShardWorker::ShardWorker(const std::string &address,
                         ShardWorkerOptions options)
    : options_(resolveOptions(std::move(options))),
      service_(
          std::make_unique<api::ExecutionService>(options_.service)),
      listener_(address)
{
}

ShardWorker::~ShardWorker()
{
    stop();
}

const std::string &
ShardWorker::address() const
{
    return listener_.address();
}

void
ShardWorker::run()
{
    while (!stopped_.load()) {
        Socket conn = listener_.accept();
        if (!conn.valid())
            break;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.connections;
            activeConnFd_ = conn.fd();
        }
        try {
            serveConnection(conn);
        } catch (const WireError &) {
            // Protocol violation or transport death: drop this
            // connection, stay up for the next one.  Per-job
            // failures never land here — they travel back as Error
            // frames.
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.protocolErrors;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            activeConnFd_ = -1;
        }
    }
    service_->shutdown();
    if (options_.emitStats)
        std::fprintf(stderr, "%s\n",
                     api::serviceStatsJson(service_->stats(),
                                           service_->workers())
                         .c_str());
}

void
ShardWorker::stop()
{
    stopped_.store(true);
    listener_.close();
    std::lock_guard<std::mutex> lock(mutex_);
    if (activeConnFd_ >= 0)
        ::shutdown(activeConnFd_, SHUT_RDWR);
}

ShardWorkerStats
ShardWorker::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ShardWorker::serveConnection(Socket &conn)
{
    if (options_.recvTimeoutMs > 0)
        conn.setRecvTimeout(options_.recvTimeoutMs);

    /** One queued reply: a submitted job's handle, or an immediate
     *  parse/submit failure already mapped to an Error frame. */
    struct Outgoing
    {
        std::uint64_t id = 0;
        int attempt = 0;
        api::ExecutionService::JobHandle handle;
        bool isError = false;
        std::string kind;
        std::string message;
    };

    // The reader (this thread) and writer share the socket: reads
    // and writes touch disjoint kernel state, but the writer's
    // Result frames and the reader's Heartbeat/Stats replies must
    // not interleave mid-frame.
    std::mutex writeMutex;

    std::deque<Outgoing> outgoing;
    std::mutex queueMutex;
    std::condition_variable queueCv;
    bool readerDone = false;

    // Writer: pop replies in submit order, wait each job out, stream
    // the Result/Error frame.  Submit order costs nothing (the
    // router re-orders by id) and keeps the wire deterministic.
    std::thread writer([&] {
        bool broken = false;
        for (;;) {
            Outgoing job;
            {
                std::unique_lock<std::mutex> lock(queueMutex);
                queueCv.wait(lock, [&] {
                    return readerDone || !outgoing.empty();
                });
                if (outgoing.empty())
                    return;
                job = std::move(outgoing.front());
                outgoing.pop_front();
            }
            Frame frame;
            if (job.isError) {
                frame.type = FrameType::Error;
                frame.payload = encodeErrorPayload(
                    job.id, job.attempt, job.kind, job.message);
            } else {
                try {
                    // The execution's shared line encoding: a cache
                    // hit costs a label splice, not a re-encode.
                    frame.type = FrameType::Result;
                    frame.payload = encodeJobPayload(
                        job.id, job.attempt,
                        service_->resultLine(job.handle));
                } catch (const api::WorkerLostError &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "worker_lost",
                        error.what());
                } catch (const api::DeadlineInfeasibleError
                             &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "deadline_infeasible",
                        error.what());
                } catch (const resil::RetryBudgetExhaustedError
                             &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "retry_budget",
                        error.what());
                } catch (const api::ServiceError &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "service",
                        error.what());
                } catch (const std::invalid_argument &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "invalid_argument",
                        error.what());
                } catch (const std::exception &error) {
                    frame.type = FrameType::Error;
                    frame.payload = encodeErrorPayload(
                        job.id, job.attempt, "internal",
                        error.what());
                }
            }
            if (broken)
                continue; // Drain handles; nowhere to send.
            try {
                std::lock_guard<std::mutex> wlock(writeMutex);
                writeFrame(conn, frame);
                std::lock_guard<std::mutex> slock(mutex_);
                if (frame.type == FrameType::Error)
                    ++stats_.errors;
                else
                    ++stats_.results;
            } catch (const WireError &) {
                // Router gone mid-reply: unblock the reader and keep
                // draining the queue without sending (the router's
                // idempotent replay re-runs these jobs elsewhere).
                broken = true;
                conn.shutdownBoth();
            }
        }
    });

    std::exception_ptr readerError;
    try {
        bool running = true;
        while (running) {
            std::optional<Frame> frame = readFrame(conn);
            if (!frame)
                break; // Clean hangup between frames.
            switch (frame->type) {
            case FrameType::Hello:
                break;
            case FrameType::Submit: {
                const JobPayload payload =
                    parseJobPayload(frame->payload);
                Outgoing out;
                out.id = payload.id;
                out.attempt = payload.attempt;
                try {
                    api::SpecLine parsed =
                        api::parseSpecLine(payload.body);
                    out.handle = service_->submit(
                        std::move(parsed.spec), parsed.priority,
                        parsed.deadlineMs);
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.submits;
                } catch (const api::DeadlineInfeasibleError
                             &error) {
                    out.isError = true;
                    out.kind = "deadline_infeasible";
                    out.message = error.what();
                } catch (const api::ServiceError &error) {
                    out.isError = true;
                    out.kind = "service";
                    out.message = error.what();
                } catch (const std::invalid_argument &error) {
                    out.isError = true;
                    out.kind = "invalid_argument";
                    out.message = error.what();
                }
                {
                    std::lock_guard<std::mutex> lock(queueMutex);
                    outgoing.push_back(std::move(out));
                }
                queueCv.notify_one();
                break;
            }
            case FrameType::Heartbeat: {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.heartbeats;
                }
                std::lock_guard<std::mutex> wlock(writeMutex);
                writeFrame(conn, Frame{FrameType::HeartbeatAck,
                                       frame->payload});
                break;
            }
            case FrameType::StatsRequest: {
                const std::string line = api::serviceStatsJson(
                    service_->stats(), service_->workers());
                std::lock_guard<std::mutex> wlock(writeMutex);
                writeFrame(conn,
                           Frame{FrameType::StatsReply, line});
                break;
            }
            case FrameType::Shutdown:
                stopped_.store(true);
                running = false;
                break;
            default:
                // Result/Error/HeartbeatAck/StatsReply only flow
                // shard -> router.
                throw WireError(
                    WireError::Kind::BadType,
                    "frame type only valid shard -> router");
            }
        }
    } catch (const WireError &) {
        readerError = std::current_exception();
    }

    {
        std::lock_guard<std::mutex> lock(queueMutex);
        readerDone = true;
    }
    queueCv.notify_all();
    writer.join();
    if (readerError)
        std::rethrow_exception(readerError);
}

} // namespace hammer::net
