#include "service/daemon.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/artifact_io.hh"
#include "support/check.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace yasim {

namespace {

bool
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Flip one deterministic bit of @p chunk (svc.read.corrupt). */
void
corruptChunk(std::string &chunk)
{
    if (!chunk.empty())
        chunk[chunk.size() / 2] ^= 0x10;
}

} // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions options,
                             ExperimentEngine &engine)
    : opts(std::move(options)), engine(engine)
{
    if (opts.workers == 0)
        opts.workers = 1;
}

ServiceDaemon::~ServiceDaemon()
{
    stop();
}

bool
ServiceDaemon::start(std::string &error)
{
    YASIM_CHECK(!started, "ServiceDaemon started twice");
    if (opts.socketPath.empty() && opts.tcpPort < 0) {
        error = "no listener configured (need a socket path or port)";
        return false;
    }

    if (pipe(wakePipe) != 0) {
        error = csprintf("pipe: %s", std::strerror(errno));
        return false;
    }
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    if (!opts.socketPath.empty()) {
        sockaddr_un addr{};
        if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
            error = "socket path too long";
            return false;
        }
        unixFd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd < 0) {
            error = csprintf("socket: %s", std::strerror(errno));
            return false;
        }
        ::unlink(opts.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                    opts.socketPath.size() + 1);
        if (bind(unixFd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof(addr)) != 0 ||
            listen(unixFd, 64) != 0) {
            error = csprintf("bind/listen '%s': %s",
                             opts.socketPath.c_str(),
                             std::strerror(errno));
            return false;
        }
        setNonBlocking(unixFd);
    }

    if (opts.tcpPort >= 0) {
        tcpFd = socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd < 0) {
            error = csprintf("socket: %s", std::strerror(errno));
            return false;
        }
        int one = 1;
        setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(uint16_t(opts.tcpPort));
        if (bind(tcpFd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof(addr)) != 0 ||
            listen(tcpFd, 64) != 0) {
            error = csprintf("bind/listen port %d: %s", opts.tcpPort,
                             std::strerror(errno));
            return false;
        }
        socklen_t len = sizeof(addr);
        getsockname(tcpFd, reinterpret_cast<sockaddr *>(&addr), &len);
        boundTcpPort = ntohs(addr.sin_port);
        setNonBlocking(tcpFd);
    }

    started = true;
    for (unsigned i = 0; i < opts.workers; ++i)
        workerThreads.emplace_back([this] { workerLoop(); });
    watchdogThread = std::thread([this] { watchdogLoop(); });
    ioThread = std::thread([this] { ioLoop(); });
    return true;
}

void
ServiceDaemon::requestDrain()
{
    // Async-signal-safe: one lock-free store and one pipe write.
    drainRequested.store(true);
    if (wakePipe[1] >= 0) {
        char byte = 'D';
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }
}

void
ServiceDaemon::wakeIo()
{
    if (wakePipe[1] >= 0) {
        char byte = 'W';
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }
}

void
ServiceDaemon::wait()
{
    if (!started || joined)
        return;
    if (ioThread.joinable())
        ioThread.join();
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopWorkers = true;
        stopWatchdog = true;
    }
    queueCv.notify_all();
    watchdogCv.notify_all();
    for (std::thread &t : workerThreads)
        if (t.joinable())
            t.join();
    if (watchdogThread.joinable())
        watchdogThread.join();
    joined = true;
}

void
ServiceDaemon::stop()
{
    if (!started || joined) {
        joined = started;
        return;
    }
    requestDrain();
    wait();
}

DaemonCounters
ServiceDaemon::counters() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return ctr;
}

JsonReport
ServiceDaemon::statsReport() const
{
    JsonReport report("service-stats");
    engine.appendCounters(report);
    DaemonCounters c = counters();
    report.setCount("svc_connections_accepted", c.connectionsAccepted);
    report.setCount("svc_accept_transients", c.acceptTransients);
    report.setCount("svc_requests_decoded", c.requestsDecoded);
    report.setCount("svc_jobs_accepted", c.jobsAccepted);
    report.setCount("svc_jobs_executed", c.jobsExecuted);
    report.setCount("svc_rejected_queue_full", c.rejectedQueueFull);
    report.setCount("svc_rejected_quota", c.rejectedQuota);
    report.setCount("svc_rejected_draining", c.rejectedDraining);
    report.setCount("svc_protocol_errors", c.protocolErrors);
    report.setCount("svc_disconnects", c.disconnects);
    report.setCount("svc_responses_dropped", c.responsesDropped);
    report.setCount("svc_max_queue_depth", c.maxQueueDepth);
    report.setCount("svc_jobs_cancelled", c.jobsCancelled);
    report.setCount("svc_jobs_deadline_expired", c.jobsDeadlineExpired);
    report.setCount("svc_jobs_shed", c.jobsShed);
    report.setCount("svc_watchdog_wakeups", c.watchdogWakeups);
    report.setBool("svc_draining", drainRequested.load());
    return report;
}

void
ServiceDaemon::acceptPending(int listen_fd)
{
    for (;;) {
        if (failpoint::fire("svc.accept.transient")) {
            // A transient accept failure: leave the pending connection
            // in the backlog; the next poll round retries it.
            std::lock_guard<std::mutex> lock(mutex);
            ++ctr.acceptTransients;
            return;
        }
        int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        Connection conn;
        conn.fd = fd;
        connections.emplace(nextConnId++, std::move(conn));
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.connectionsAccepted;
    }
}

void
ServiceDaemon::respond(Connection &conn,
                       const ExperimentResponse &response)
{
    conn.outBuf += frameResponse(response);
}

void
ServiceDaemon::pushJobResponse(uint64_t conn_id,
                               const ExperimentResponse &response)
{
    // Caller holds `mutex` and wakes the I/O loop afterwards.
    Outbound out;
    out.connId = conn_id;
    out.frame = frameResponse(response);
    outbox.push_back(std::move(out));
}

void
ServiceDaemon::admit(uint64_t conn_id, Connection &conn,
                     const ExperimentRequest &request)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.requestsDecoded;
    }

    ExperimentResponse response;
    response.id = request.id;

    switch (request.kind) {
      case RequestKind::Ping:
        respond(conn, response);
        return;
      case RequestKind::Stats:
        response.report = statsReport().render();
        respond(conn, response);
        return;
      case RequestKind::Shutdown:
        respond(conn, response);
        requestDrain();
        return;
      case RequestKind::Cancel: {
        // The ack answers the Cancel itself; a cancelled queued job
        // answers separately through the outbox, and a running one
        // answers when its executor unwinds at the next poll.
        bool found = false;
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                const Job &job = it->second;
                if (job.connId != conn_id ||
                    job.request.id != request.target)
                    continue;
                ExperimentResponse cancelled;
                cancelled.id = job.request.id;
                cancelled.status = ResponseStatus::Cancelled;
                cancelled.error = "cancelled while queued";
                pushJobResponse(conn_id, cancelled);
                ++ctr.jobsCancelled;
                queue.erase(it);
                found = true;
                break;
            }
            if (!found) {
                auto run = running.find({conn_id, request.target});
                if (run != running.end()) {
                    run->second->cancel(CancelCause::Cancelled);
                    found = true;
                }
            }
        }
        if (!found) {
            response.status = ResponseStatus::Error;
            response.error = "no such job";
        }
        respond(conn, response);
        return;
      }
      case RequestKind::Run:
        break;
    }

    bool deadline_armed = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (drainRequested.load()) {
            ++ctr.rejectedDraining;
            response.status = ResponseStatus::Rejected;
            response.error = "draining";
        } else if (queue.size() >= opts.maxQueue) {
            ++ctr.rejectedQueueFull;
            response.status = ResponseStatus::Rejected;
            response.error = "queue full";
        } else if (conn.outstanding >= opts.clientQuota) {
            ++ctr.rejectedQuota;
            response.status = ResponseStatus::Rejected;
            response.error = "per-client quota exceeded";
        } else {
            // Overload shedding: when this request carries a deadline
            // the estimated queue delay already blows through, answer
            // *something* Rejected "shed" now rather than burning an
            // executor on work that is dead on arrival. The victim is
            // the lowest-priority job in sight: the incoming one, or
            // the worst queued one it outranks (whose slot it takes).
            if (request.deadlineMs > 0 && ewmaJobMs > 0.0 &&
                !queue.empty()) {
                double est_delay_ms = double(queue.size()) * ewmaJobMs /
                                      double(opts.workers);
                if (est_delay_ms > double(request.deadlineMs)) {
                    auto worst = std::prev(queue.end());
                    if (request.priority >= worst->first.first) {
                        ++ctr.jobsShed;
                        response.status = ResponseStatus::Rejected;
                        response.error = "shed";
                    } else {
                        ExperimentResponse shed;
                        shed.id = worst->second.request.id;
                        shed.status = ResponseStatus::Rejected;
                        shed.error = "shed";
                        pushJobResponse(worst->second.connId, shed);
                        ++ctr.jobsShed;
                        queue.erase(worst);
                    }
                }
            }
            if (response.status != ResponseStatus::Rejected) {
                Job job;
                job.connId = conn_id;
                job.request = request;
                job.cancel = std::make_shared<CancelSource>();
                if (request.deadlineMs > 0) {
                    job.cancel->setDeadlineAfterMs(
                        int64_t(request.deadlineMs));
                    job.deadlineAtMs = job.cancel->deadlineAtMs();
                    deadline_armed = true;
                }
                queue.emplace(std::make_pair(request.priority,
                                             admissionSeq++),
                              std::move(job));
                ++conn.outstanding;
                ++ctr.jobsAccepted;
                if (queue.size() > ctr.maxQueueDepth)
                    ctr.maxQueueDepth = queue.size();
            }
        }
    }
    if (response.status == ResponseStatus::Rejected) {
        respond(conn, response);
        return;
    }
    queueCv.notify_one();
    if (deadline_armed)
        watchdogCv.notify_one();
}

bool
ServiceDaemon::serviceInput(uint64_t conn_id, Connection &conn,
                            bool &protocol_error)
{
    protocol_error = false;
    char buffer[1 << 16];
    for (;;) {
        ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
        if (n == 0)
            return false; // orderly disconnect
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                break;
            return false;
        }
        std::string chunk(buffer, size_t(n));
        if (failpoint::fire("svc.read.corrupt"))
            corruptChunk(chunk);
        conn.inBuf += chunk;
    }

    // Split the buffered bytes into complete frames.
    for (;;) {
        uint64_t frame_bytes = 0;
        FrameSizeStatus status =
            frameSize(conn.inBuf, kMaxServicePayload, frame_bytes);
        if (status == FrameSizeStatus::NeedMore)
            break;
        if (status == FrameSizeStatus::Malformed) {
            protocol_error = true;
            std::lock_guard<std::mutex> lock(mutex);
            ++ctr.protocolErrors;
            return false;
        }
        if (conn.inBuf.size() < frame_bytes)
            break;

        std::string payload, frame_error;
        bool frame_ok =
            decodeFrame(std::string_view(conn.inBuf).substr(
                            0, size_t(frame_bytes)),
                        kRequestMagic, kServiceFormatVersion, payload,
                        frame_error);
        conn.inBuf.erase(0, size_t(frame_bytes));

        ExperimentRequest request;
        std::string payload_error;
        if (!frame_ok ||
            !decodeRequest(payload, request, payload_error)) {
            // Checksum, version, or payload verification failed: the
            // stream can no longer be trusted. Drop the peer; it
            // reconnects and resubmits over a clean stream.
            protocol_error = true;
            std::lock_guard<std::mutex> lock(mutex);
            ++ctr.protocolErrors;
            return false;
        }
        admit(conn_id, conn, request);
    }
    return true;
}

void
ServiceDaemon::dropConnection(uint64_t conn_id, bool protocol_error)
{
    auto it = connections.find(conn_id);
    if (it == connections.end())
        return;
    ::close(it->second.fd);
    connections.erase(it);
    std::lock_guard<std::mutex> lock(mutex);
    if (!protocol_error)
        ++ctr.disconnects;
}

void
ServiceDaemon::flushOutbox()
{
    std::vector<Outbound> finished;
    {
        std::lock_guard<std::mutex> lock(mutex);
        finished.swap(outbox);
    }
    for (Outbound &out : finished) {
        auto it = connections.find(out.connId);
        if (it == connections.end()) {
            // The client vanished between admission and completion.
            // The work still populated the shared caches; only the
            // response bytes are dropped (and never duplicated — a
            // resubmitting client gets a fresh execution id).
            std::lock_guard<std::mutex> lock(mutex);
            ++ctr.responsesDropped;
            continue;
        }
        it->second.outBuf += out.frame;
        if (it->second.outstanding > 0)
            --it->second.outstanding;
    }
}

void
ServiceDaemon::ioLoop()
{
    for (;;) {
        flushOutbox();

        bool drain = drainRequested.load();
        bool idle;
        {
            std::lock_guard<std::mutex> lock(mutex);
            idle = queue.empty() && activeJobs == 0 && outbox.empty();
        }
        if (drain && idle) {
            bool flushed = true;
            for (const auto &entry : connections)
                if (!entry.second.outBuf.empty())
                    flushed = false;
            if (flushed)
                break;
        }

        std::vector<pollfd> fds;
        std::vector<uint64_t> ids;
        fds.push_back({wakePipe[0], POLLIN, 0});
        ids.push_back(0);
        // While draining, stop accepting (pending peers get ECONNRESET
        // at close; accepted ones are served to completion).
        if (!drain) {
            if (unixFd >= 0) {
                fds.push_back({unixFd, POLLIN, 0});
                ids.push_back(0);
            }
            if (tcpFd >= 0) {
                fds.push_back({tcpFd, POLLIN, 0});
                ids.push_back(0);
            }
        }
        for (const auto &entry : connections) {
            short events = POLLIN;
            if (!entry.second.outBuf.empty())
                events |= POLLOUT;
            fds.push_back({entry.second.fd, events, 0});
            ids.push_back(entry.first);
        }

        int ready = poll(fds.data(), nfds_t(fds.size()), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        // Drain the wake pipe.
        if (fds[0].revents & POLLIN) {
            char sink[256];
            while (::read(wakePipe[0], sink, sizeof(sink)) > 0) {
            }
        }

        for (size_t i = 1; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == unixFd || fds[i].fd == tcpFd) {
                acceptPending(fds[i].fd);
                continue;
            }
            uint64_t conn_id = ids[i];
            auto it = connections.find(conn_id);
            if (it == connections.end())
                continue;
            Connection &conn = it->second;

            if (fds[i].revents & POLLOUT) {
                ssize_t n = send(conn.fd, conn.outBuf.data(),
                                 conn.outBuf.size(), MSG_NOSIGNAL);
                if (n > 0)
                    conn.outBuf.erase(0, size_t(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK && errno != EINTR) {
                    dropConnection(conn_id, false);
                    continue;
                }
            }
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                bool protocol_error = false;
                if (!serviceInput(conn_id, conn, protocol_error))
                    dropConnection(conn_id, protocol_error);
            }
        }
    }

    // Drained: close every fd; accepted work is complete and flushed.
    for (const auto &entry : connections)
        ::close(entry.second.fd);
    connections.clear();
    if (unixFd >= 0) {
        ::close(unixFd);
        ::unlink(opts.socketPath.c_str());
        unixFd = -1;
    }
    if (tcpFd >= 0) {
        ::close(tcpFd);
        tcpFd = -1;
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopWorkers = true;
    }
    queueCv.notify_all();
}

void
ServiceDaemon::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex);
            queueCv.wait(lock, [this] {
                return stopWorkers || !queue.empty();
            });
            if (queue.empty()) {
                if (stopWorkers)
                    return;
                continue;
            }
            auto it = queue.begin();
            job = std::move(it->second);
            queue.erase(it);
            ++activeJobs;
            if (job.cancel)
                running.emplace(std::make_pair(job.connId,
                                               job.request.id),
                                job.cancel);
        }

        // Dispatch-time expiry backstop: a job whose deadline passed
        // in the queue (or that "svc.cancel.dispatch" forces past it)
        // is answered without touching the engine.
        if (job.cancel && failpoint::fire("svc.cancel.dispatch"))
            job.cancel->cancel(CancelCause::DeadlineExceeded);

        ExperimentResponse response;
        bool ran = false;
        int64_t elapsed_ms = 0;
        if (job.cancel && job.cancel->expired()) {
            response.id = job.request.id;
            response.status =
                job.cancel->cause() == CancelCause::Cancelled
                    ? ResponseStatus::Cancelled
                    : ResponseStatus::DeadlineExceeded;
            response.error = cancelCauseName(job.cancel->cause());
        } else {
            int64_t t0 = monotonicNowMs();
            response = executeRequest(engine, job.request,
                                      job.cancel ? job.cancel->token()
                                                 : CancelToken());
            elapsed_ms = monotonicNowMs() - t0;
            ran = true;
        }

        {
            std::lock_guard<std::mutex> lock(mutex);
            pushJobResponse(job.connId, response);
            --activeJobs;
            running.erase({job.connId, job.request.id});
            switch (response.status) {
              case ResponseStatus::Cancelled:
                ++ctr.jobsCancelled;
                break;
              case ResponseStatus::DeadlineExceeded:
                ++ctr.jobsDeadlineExpired;
                break;
              default:
                ++ctr.jobsExecuted;
                break;
            }
            if (ran) {
                // Admission's queue-delay estimate (file comment).
                ewmaJobMs = ewmaJobMs == 0.0
                                ? double(elapsed_ms)
                                : 0.9 * ewmaJobMs +
                                      0.1 * double(elapsed_ms);
            }
        }
        wakeIo();
    }
}

void
ServiceDaemon::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (stopWatchdog)
            return;

        // Earliest pending expiry over queued and running jobs. A
        // running source already carrying a cause is its executor's
        // problem (it retires at the next poll) — considering it here
        // would spin the watchdog, lock held, until that retirement.
        int64_t next = INT64_MAX;
        for (const auto &entry : queue)
            next = std::min(next, entry.second.deadlineAtMs);
        for (const auto &entry : running)
            if (entry.second->cause() == CancelCause::None)
                next = std::min(next, entry.second->deadlineAtMs());

        if (next == INT64_MAX) {
            // Nothing has a deadline; sleep until admission arms one
            // (or shutdown). Spurious wakes just recompute.
            watchdogCv.wait(lock);
            continue;
        }
        int64_t now = monotonicNowMs();
        if (now < next) {
            watchdogCv.wait_for(
                lock, std::chrono::milliseconds(next - now));
            continue; // recompute: deadlines may have changed
        }

        ++ctr.watchdogWakeups;

        // Queued jobs past deadline never dispatch: answer them now.
        bool pushed = false;
        for (auto it = queue.begin(); it != queue.end();) {
            Job &job = it->second;
            if (job.deadlineAtMs > now) {
                ++it;
                continue;
            }
            if (job.cancel)
                job.cancel->cancel(CancelCause::DeadlineExceeded);
            ExperimentResponse response;
            response.id = job.request.id;
            response.status = ResponseStatus::DeadlineExceeded;
            response.error = "deadline expired while queued";
            pushJobResponse(job.connId, response);
            ++ctr.jobsDeadlineExpired;
            it = queue.erase(it);
            pushed = true;
        }

        // Running jobs past deadline: backstop cancel. The executor's
        // own deadline polls normally fire first; this covers sources
        // whose deadline landed between polls of a long batch.
        for (auto &entry : running)
            if (entry.second->cause() == CancelCause::None &&
                entry.second->deadlineAtMs() <= now)
                entry.second->cancel(CancelCause::DeadlineExceeded);

        if (pushed)
            wakeIo();
    }
}

} // namespace yasim
