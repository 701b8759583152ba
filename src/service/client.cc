#include "service/client.hh"

#include <cerrno>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/artifact_io.hh"
#include "support/backoff.hh"
#include "support/logging.hh"

namespace yasim {

namespace {

/** Backoff seed for reconnects and admission retries (see rng.hh). */
constexpr uint64_t kClientBackoffSeed = 0xc11e47b0ffULL;
/**
 * Total-attempt budget per logical request: connects plus
 * admission-rejection resubmits. Exhausting it fails the call or batch
 * instead of retrying forever against an overloaded daemon.
 */
constexpr uint32_t kMaxAttempts = 64;

} // namespace

ServiceClient::ServiceClient(ClientOptions options)
    : opts(std::move(options))
{
    if (opts.window == 0)
        opts.window = 1;
}

ServiceClient::~ServiceClient()
{
    disconnect();
}

void
ServiceClient::disconnect()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    inBuf.clear();
}

bool
ServiceClient::connect(std::string &error)
{
    disconnect();
    if (!opts.socketPath.empty()) {
        sockaddr_un addr{};
        if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
            error = "socket path too long";
            return false;
        }
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            error = csprintf("socket: %s", std::strerror(errno));
            return false;
        }
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                    opts.socketPath.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            error = csprintf("connect '%s': %s",
                             opts.socketPath.c_str(),
                             std::strerror(errno));
            disconnect();
            return false;
        }
        return true;
    }
    if (opts.tcpPort < 0) {
        error = "no endpoint configured (need a socket path or port)";
        return false;
    }
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = csprintf("socket: %s", std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(uint16_t(opts.tcpPort));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = csprintf("connect port %d: %s", opts.tcpPort,
                         std::strerror(errno));
        disconnect();
        return false;
    }
    return true;
}

bool
ServiceClient::sendAll(const std::string &bytes, std::string &error)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = csprintf("send: %s", std::strerror(errno));
            return false;
        }
        sent += size_t(n);
    }
    return true;
}

bool
ServiceClient::receiveResponse(ExperimentResponse &response,
                               std::string &error)
{
    for (;;) {
        uint64_t frame_bytes = 0;
        FrameSizeStatus status =
            frameSize(inBuf, kMaxServicePayload, frame_bytes);
        if (status == FrameSizeStatus::Malformed) {
            error = "malformed response frame";
            return false;
        }
        if (status == FrameSizeStatus::Known &&
            inBuf.size() >= frame_bytes) {
            std::string payload, frame_error;
            bool ok = decodeFrame(
                std::string_view(inBuf).substr(0, size_t(frame_bytes)),
                kResponseMagic, kServiceFormatVersion, payload,
                frame_error);
            inBuf.erase(0, size_t(frame_bytes));
            if (!ok) {
                error = "response frame failed verification: " +
                        frame_error;
                return false;
            }
            if (!decodeResponse(payload, response, error))
                return false;
            return true;
        }

        char buffer[1 << 16];
        ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
        if (n == 0) {
            error = "daemon closed the connection";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = csprintf("recv: %s", std::strerror(errno));
            return false;
        }
        inBuf.append(buffer, size_t(n));
    }
}

bool
ServiceClient::call(const ExperimentRequest &request,
                    ExperimentResponse &response, std::string &error)
{
    std::string frame = frameRequest(request);
    Backoff retry_backoff(kClientBackoffSeed);
    for (uint32_t attempt = 0;; ++attempt) {
        if (attempt >= kMaxAttempts) {
            error = "attempt budget exhausted";
            return false;
        }
        if (fd < 0 && !connect(error)) {
            if (attempt >= opts.maxReconnects)
                return false;
            retry_backoff.sleep();
            continue;
        }
        if (sendAll(frame, error) && receiveResponse(response, error))
            return true;
        disconnect();
        if (attempt >= opts.maxReconnects)
            return false;
        retry_backoff.sleep();
    }
}

bool
ServiceClient::runBatch(const std::vector<ExperimentRequest> &requests,
                        std::vector<ExperimentResponse> &responses,
                        BatchStats &stats, std::string &error)
{
    responses.assign(requests.size(), ExperimentResponse{});
    stats = BatchStats{};

    // Ids are the correlation key; a duplicate would make responses
    // unattributable.
    std::map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < requests.size(); ++i) {
        if (!by_id.emplace(requests[i].id, i).second) {
            error = csprintf("duplicate request id %llu",
                             static_cast<unsigned long long>(
                                 requests[i].id));
            return false;
        }
    }

    std::deque<size_t> pending;
    for (size_t i = 0; i < requests.size(); ++i)
        pending.push_back(i);
    std::map<uint64_t, size_t> outstanding;
    size_t completed = 0;
    uint32_t reconnect_attempts = 0;
    uint32_t drain_rejections = 0;
    /** Per-request resubmission budget (admission retries). */
    std::vector<uint32_t> attempts(requests.size(), 0);
    Backoff reconnect_backoff(kClientBackoffSeed);
    Backoff reject_backoff(kClientBackoffSeed ^ 1);

    auto requeueOutstanding = [&] {
        // Oldest first, ahead of never-sent work.
        for (auto it = outstanding.rbegin(); it != outstanding.rend();
             ++it)
            pending.push_front(it->second);
        outstanding.clear();
    };

    while (completed < requests.size()) {
        if (fd < 0) {
            if (!connect(error)) {
                if (++reconnect_attempts > opts.maxReconnects)
                    return false;
                reconnect_backoff.sleep();
                continue;
            }
            reconnect_backoff.reset();
        }

        bool io_failed = false;
        while (outstanding.size() < opts.window && !pending.empty()) {
            size_t index = pending.front();
            pending.pop_front();
            if (!sendAll(frameRequest(requests[index]), error)) {
                pending.push_front(index);
                io_failed = true;
                break;
            }
            outstanding.emplace(requests[index].id, index);
            ++stats.submitted;
        }

        ExperimentResponse response;
        if (!io_failed && !outstanding.empty() &&
            !receiveResponse(response, error))
            io_failed = true;

        if (io_failed) {
            // The daemon drops a connection on any unverifiable frame
            // (e.g. an injected bit flip). Everything unanswered is
            // resubmitted on a fresh connection; answered requests are
            // never resent, so no response can be duplicated.
            disconnect();
            requeueOutstanding();
            ++stats.reconnects;
            if (++reconnect_attempts > opts.maxReconnects)
                return false;
            reconnect_backoff.sleep();
            continue;
        }
        if (outstanding.empty())
            continue;
        reconnect_attempts = 0;

        auto it = outstanding.find(response.id);
        if (it == outstanding.end()) {
            error = csprintf("response for unknown id %llu",
                             static_cast<unsigned long long>(
                                 response.id));
            return false;
        }
        size_t index = it->second;
        outstanding.erase(it);

        if (response.status == ResponseStatus::Rejected &&
            response.error != "shed") {
            if (response.error == "draining" &&
                ++drain_rejections > 3) {
                error = "daemon is draining; batch cannot complete";
                return false;
            }
            if (++attempts[index] >= kMaxAttempts) {
                error = csprintf(
                    "attempt budget exhausted for request id %llu "
                    "(last rejection: %s)",
                    static_cast<unsigned long long>(response.id),
                    response.error.c_str());
                return false;
            }
            ++stats.rejections;
            pending.push_back(index);
            reject_backoff.sleep();
            continue;
        }
        // Terminal: Ok, Error, Cancelled, DeadlineExceeded, or a
        // "shed" rejection (retrying shed work would deepen the
        // overload that shed it).
        switch (response.status) {
          case ResponseStatus::Cancelled:
            ++stats.cancelled;
            break;
          case ResponseStatus::DeadlineExceeded:
            ++stats.deadlineExceeded;
            break;
          case ResponseStatus::Rejected:
            ++stats.shed;
            break;
          default:
            break;
        }
        responses[index] = std::move(response);
        ++completed;
        ++stats.completed;
    }
    return true;
}

} // namespace yasim
