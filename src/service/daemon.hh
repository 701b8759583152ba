/**
 * @file
 * yasimd's core: a multi-tenant experiment service over one socket.
 *
 * ServiceDaemon listens on a Unix and/or loopback-TCP socket and
 * serves the framed protocol of service/protocol.hh. One I/O thread
 * owns every connection: it polls, splits the byte stream into frames
 * (takeFrame()), decodes requests, runs admission control, and answers
 * queued jobs whose deadlines pass; a pool of executor threads drains a
 * priority job queue through the shared ExperimentEngine — so every
 * tenant hits one memo table, one disk cache, and one trace store, and
 * a config grid queued by eight clients simulates each cell once.
 *
 * Admission control (evaluated in arrival order, on the I/O thread):
 *
 *   - draining           → Rejected "draining" (new Run work only)
 *   - queue ≥ maxQueue   → Rejected "queue full"
 *   - per-connection outstanding ≥ clientQuota → Rejected "quota"
 *   - estimated queue delay > request deadline → "shed" (see below)
 *
 * Rejections are well-formed responses, not disconnects; clients back
 * off and resubmit. A malformed or oversized frame, by contrast, is a
 * protocol error: the connection is dropped on the spot (the peer is
 * broken or hostile — there is no frame boundary to resynchronize to),
 * and any in-flight results for it are discarded and counted.
 *
 * Deadlines and cancellation (protocol v2, docs/robustness.md):
 *
 * A Run request may carry deadline_ms; admission stamps an absolute
 * monotonic expiry on the job's CancelSource, so executor polls trip
 * DeadlineExceeded cooperatively mid-run. The I/O loop's poll() times
 * out at the earliest queued expiry, and queued jobs past deadline are
 * answered DeadlineExceeded without ever dispatching (nobody polls a
 * queued job's token); an executor re-checks expiry at dispatch, for a
 * job popped between its deadline and that sweep. A Cancel request
 * names an earlier request id on the same connection: a queued target
 * is answered Cancelled and removed; a running target's source is
 * cancelled (its executor unwinds at the next poll and answers
 * Cancelled); the Cancel itself is acked Ok, or Error when no such job
 * exists. Every admitted job gets exactly one response, whatever path
 * retires it.
 *
 * Overload shedding: admission keeps an EWMA of job execution time;
 * when a deadline-carrying Run arrives and the estimated queue delay
 * (depth x EWMA / workers) already exceeds its deadline, the daemon
 * sheds the lowest-priority job — the incoming one, or a queued one
 * it outranks — with a well-formed Rejected "shed" response, instead
 * of burning executor time on work that is already dead.
 *
 * Draining (requestDrain(), or a Shutdown request): stop admitting,
 * finish every accepted job, flush every response, then exit the I/O
 * loop. requestDrain() is async-signal-safe — yasimd calls it straight
 * from its SIGTERM handler — so "kill -TERM yasimd" never loses an
 * accepted job.
 *
 * Deterministic fault injection (support/failpoint.hh) covers the
 * socket path like the artifact path:
 *
 *     svc.accept.transient   accept() of a pending connection fails
 *     svc.read.corrupt       one bit of a received chunk flips
 *     svc.cancel.dispatch    a popped job expires at dispatch (its
 *                            deadline is forced past, pre-execution)
 *
 * All are exercised by tests/test_service.cc and the CI service job.
 */

#ifndef YASIM_SERVICE_DAEMON_HH
#define YASIM_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hh"

namespace yasim {

/** Daemon construction knobs. */
struct DaemonOptions
{
    /** Unix-domain socket path ("" = no Unix listener). */
    std::string socketPath;
    /**
     * Loopback TCP port (-1 = no TCP listener, 0 = ephemeral — read
     * the bound port back with tcpPort()).
     */
    int tcpPort = -1;
    /** Executor threads draining the job queue. */
    unsigned workers = 2;
    /** Bound on queued-but-not-executing jobs (admission control). */
    size_t maxQueue = 256;
    /** Bound on one connection's outstanding jobs (per-client quota). */
    uint32_t clientQuota = 64;
};

/** Monotonic daemon counters (Stats responses embed them). */
struct DaemonCounters
{
    uint64_t connectionsAccepted = 0;
    uint64_t acceptTransients = 0;
    /** Well-formed requests of any kind that reached admission. */
    uint64_t requestsDecoded = 0;
    /** Run jobs admitted to the queue. */
    uint64_t jobsAccepted = 0;
    /** Jobs executed to completion (includes dropped-response jobs). */
    uint64_t jobsExecuted = 0;
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedQuota = 0;
    uint64_t rejectedDraining = 0;
    /** Malformed/oversized frames or payloads → connection dropped. */
    uint64_t protocolErrors = 0;
    uint64_t disconnects = 0;
    /** Completed jobs whose connection was gone at response time. */
    uint64_t responsesDropped = 0;
    /** High-water mark of the job queue. */
    uint64_t maxQueueDepth = 0;
    /** Jobs answered Cancelled (queued removal or mid-run unwind). */
    uint64_t jobsCancelled = 0;
    /**
     * Jobs answered DeadlineExceeded: expired while queued, caught at
     * dispatch, or unwound mid-run by a deadline poll.
     */
    uint64_t jobsDeadlineExpired = 0;
    /** Jobs shed by overload control (Rejected "shed"). */
    uint64_t jobsShed = 0;
};

/** The experiment service daemon. See file comment. */
class ServiceDaemon
{
  public:
    /** @p engine must outlive the daemon; it is shared by all tenants. */
    ServiceDaemon(DaemonOptions options, ExperimentEngine &engine);
    /** stop(), then close every descriptor start() left open. */
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /**
     * Bind the configured listeners and start the I/O and executor
     * threads. False (with a cause) when a listener cannot be bound.
     */
    bool start(std::string &error);

    /** The bound TCP port (valid after start(); -1 when TCP is off). */
    int tcpPort() const { return boundTcpPort; }

    /**
     * Begin draining. Async-signal-safe: sets a lock-free flag and
     * wakes the poll loop through the self-pipe.
     */
    void requestDrain();

    /** Block until the daemon has drained and every thread exited. */
    void wait();

    /** requestDrain() + wait(). Idempotent; the destructor calls it. */
    void stop();

    /** True once draining has begun. */
    bool draining() const { return drainRequested.load(); }

    /** Snapshot of the counters. */
    DaemonCounters counters() const;

    /** Engine + daemon counters as one JsonReport (kind "service-stats"). */
    JsonReport statsReport() const;

  private:
    /** One accepted connection, owned by the I/O thread. */
    struct Connection
    {
        int fd = -1;
        std::string inBuf;
        std::string outBuf;
        /** Admitted jobs not yet responded to (quota accounting). */
        uint32_t outstanding = 0;
        bool dropped = false;
    };

    /** One admitted Run job. */
    struct Job
    {
        uint64_t connId = 0;
        ExperimentRequest request;
        /**
         * Cancellation handle, created at admission. Carries the
         * absolute deadline (when the request had one), so executor
         * polls expire it without any daemon bookkeeping.
         */
        std::shared_ptr<CancelSource> cancel;
    };

    /** A finished job's framed response, heading back to its client. */
    struct Outbound
    {
        uint64_t connId = 0;
        std::string frame;
    };

    void ioLoop();
    void workerLoop();
    /**
     * Frame @p response into the outbox for @p conn_id. Caller holds
     * `mutex`; a caller off the I/O thread wakes it afterwards. The
     * uniform retirement path for every admitted-job response —
     * flushOutbox() decrements the connection's outstanding count
     * exactly once per call, whatever path retired the job.
     */
    void pushJobResponse(uint64_t conn_id,
                         const ExperimentResponse &response);
    /** Accept everything pending on @p listen_fd. */
    void acceptPending(int listen_fd);
    /**
     * Read, deframe, decode, admit. False = drop the connection, with
     * @p protocol_error set when the peer sent unverifiable bytes
     * (rather than disconnecting cleanly).
     */
    bool serviceInput(uint64_t conn_id, Connection &conn,
                      bool &protocol_error);
    /** Admission control + dispatch for one decoded request. */
    void admit(uint64_t conn_id, Connection &conn,
               const ExperimentRequest &request);
    /** Queue @p response for @p conn (frames it). */
    void respond(Connection &conn, const ExperimentResponse &response);
    /** Move completed responses from the outbox into connections. */
    void flushOutbox();
    /** Close and forget a connection. */
    void dropConnection(uint64_t conn_id, bool protocol_error);
    /** Wake the poll loop. */
    void wakeIo();

    DaemonOptions opts;
    ExperimentEngine &engine;

    int unixFd = -1;
    int tcpFd = -1;
    int boundTcpPort = -1;
    int wakePipe[2] = {-1, -1};
    bool started = false;
    bool joined = false;

    std::thread ioThread;
    std::vector<std::thread> workerThreads;

    std::atomic<bool> drainRequested{false};

    /** Connections by id (I/O thread only; stable across fd reuse). */
    std::map<uint64_t, Connection> connections;
    uint64_t nextConnId = 1;
    uint64_t admissionSeq = 0;

    mutable std::mutex mutex;
    std::condition_variable queueCv;
    /** Priority queue: (priority, admission seq) → job. */
    std::map<std::pair<uint32_t, uint64_t>, Job> queue;
    /** Jobs popped but not yet pushed to the outbox. */
    size_t activeJobs = 0;
    std::vector<Outbound> outbox;
    bool stopWorkers = false;
    DaemonCounters ctr;

    /** Dispatched jobs by (connection, request id), for Cancel. */
    std::map<std::pair<uint64_t, uint64_t>,
             std::shared_ptr<CancelSource>> running;
    /**
     * EWMA of job execution time in ms (admission's queue-delay
     * estimate). 0 until the first job completes — shedding never
     * fires before the daemon has seen real work.
     */
    double ewmaJobMs = 0.0;
};

} // namespace yasim

#endif // YASIM_SERVICE_DAEMON_HH
