/**
 * @file
 * Client side of the experiment service protocol.
 *
 * ServiceClient owns one connection to a yasimd and exchanges the
 * framed request/response messages of service/protocol.hh. Two modes:
 *
 *   - call(): one synchronous round trip (the yasim-client CLI).
 *   - runBatch(): windowed pipelining — keep up to `window` requests
 *     outstanding, match responses to requests by id, retry admission
 *     rejections after draining the window, and transparently
 *     reconnect + resubmit whatever was in flight when the daemon
 *     dropped the connection (which it does on any corrupt frame, so a
 *     failpoint-injected bit flip costs a reconnect, never a lost or
 *     duplicated response).
 *
 * The at-most-once story: the daemon never responds twice to one
 * admitted request, and a resubmission after a drop is a new admission
 * whose result comes from the engine's memo table — so batch results
 * are bit-identical to an in-process run whatever faults the transport
 * injected. bench_service asserts exactly this.
 */

#ifndef YASIM_SERVICE_CLIENT_HH
#define YASIM_SERVICE_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace yasim {

/** How a ServiceClient reaches its daemon. */
struct ClientOptions
{
    /** Unix-domain socket path ("" = use TCP). */
    std::string socketPath;
    /** Loopback TCP port (used when socketPath is empty). */
    int tcpPort = -1;
    /** Reconnect attempts before a batch gives up. */
    uint32_t maxReconnects = 32;
    /** Outstanding-request window for runBatch(). */
    uint32_t window = 16;
};

/** What a runBatch() observed (bench_service's report material). */
struct BatchStats
{
    /** Requests submitted, including resubmissions after drops. */
    uint64_t submitted = 0;
    /**
     * Distinct requests that reached a terminal response: Ok, Error,
     * Cancelled, DeadlineExceeded, or a "shed" rejection. Retried
     * admission rejections are not terminal.
     */
    uint64_t completed = 0;
    /** Admission rejections that were retried. */
    uint64_t rejections = 0;
    /** Connection drops survived by reconnect + resubmit. */
    uint64_t reconnects = 0;
    /** Requests answered Cancelled (terminal; never retried). */
    uint64_t cancelled = 0;
    /** Requests answered DeadlineExceeded (terminal; never retried). */
    uint64_t deadlineExceeded = 0;
    /**
     * Requests the daemon shed under overload (Rejected "shed").
     * Terminal: the daemon judged the deadline hopeless, so a retry
     * would only deepen the overload that shed it.
     */
    uint64_t shed = 0;
};

/** One connection to a yasimd. See file comment. */
class ServiceClient
{
  public:
    explicit ServiceClient(ClientOptions options);
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Connect (or reconnect). False with a cause on failure. */
    bool connect(std::string &error);

    /**
     * One synchronous round trip. Reconnects and resubmits once per
     * allowed attempt when the connection drops mid-call. False (with
     * a cause) when the daemon stays unreachable.
     */
    bool call(const ExperimentRequest &request,
              ExperimentResponse &response, std::string &error);

    /**
     * Pipeline @p requests through the daemon. On success, fills
     * @p responses so responses[i] answers requests[i] (matched by id;
     * every request must carry a distinct id) and returns true. A
     * Rejected admission is retried — with capped-exponential jittered
     * backoff, up to 64 attempts per request — *except* "shed", which
     * is terminal (see BatchStats::shed); Cancelled and
     * DeadlineExceeded responses are likewise terminal. A true return
     * means every request got exactly one terminal response.
     */
    bool runBatch(const std::vector<ExperimentRequest> &requests,
                  std::vector<ExperimentResponse> &responses,
                  BatchStats &stats, std::string &error);

  private:
    bool sendAll(const std::string &bytes, std::string &error);
    /** Block until one whole frame arrives; decode it. */
    bool receiveResponse(ExperimentResponse &response,
                         std::string &error);
    void disconnect();

    ClientOptions opts;
    int fd = -1;
    std::string inBuf;
};

} // namespace yasim

#endif // YASIM_SERVICE_CLIENT_HH
