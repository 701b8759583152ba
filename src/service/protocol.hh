/**
 * @file
 * The versioned experiment-service wire API (docs/service.md).
 *
 * One canonical request/response struct pair is the typed entry point
 * for every way of running an experiment: `yasim-client` builds an
 * ExperimentRequest from its flags, `yasimd` decodes the same struct
 * off the socket, and in-process callers (tests, bench_service's
 * verification engine) hand it straight to executeRequest(). There is
 * exactly one serialization of each, so a daemon and a CLI from the
 * same release can never disagree about a field.
 *
 * On the wire each message is one artifact frame (support/artifact_io
 * container framing: magic, version, length, checksum, end mark) whose
 * inner magic is kRequestMagic or kResponseMagic and whose inner
 * version is kServiceFormatVersion. The framed payload is the same
 * line-oriented text the result cache uses (engine/result_io): a
 * tagged line per field, doubles as IEEE-754 bit patterns, a strict
 * "end" marker, read by the same PayloadCursor, so a decoder accepts
 * exactly what its encoder writes. Frame and payload verification
 * failures are protocol errors — the daemon drops the connection; the
 * client resubmits over a fresh one.
 *
 * Version discipline: kServiceFormatVersion bumps on any layout or
 * semantics change; a peer speaking another version is rejected at the
 * frame layer before any field is interpreted.
 */

#ifndef YASIM_SERVICE_PROTOCOL_HH
#define YASIM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/engine.hh"
#include "support/cancel.hh"
#include "techniques/technique.hh"
#include "workloads/suite.hh"

namespace yasim {

/** Wire-format version of the service protocol (frame inner version). */
// yasim-lint: version(service)
constexpr uint32_t kServiceFormatVersion = 2;

/** Inner frame magic of a request message. */
inline constexpr const char *kRequestMagic = "yasim-svc-req";
/** Inner frame magic of a response message. */
inline constexpr const char *kResponseMagic = "yasim-svc-rsp";

/** Largest payload a well-behaved peer ever frames (admission bound). */
constexpr uint64_t kMaxServicePayload = 1 << 20;

/** What an ExperimentRequest asks the daemon to do. */
enum class RequestKind : uint32_t {
    /** Resolve and run one experiment; the response carries a result. */
    Run = 0,
    /** Liveness probe; the response is an empty Ok. */
    Ping = 1,
    /** Engine + daemon counters as a JsonReport in Response::report. */
    Stats = 2,
    /** Begin draining: finish accepted jobs, refuse new ones, exit. */
    Shutdown = 3,
    /**
     * Cancel the job whose correlation id is `target` on this
     * connection. A queued target is answered Cancelled before
     * dispatch; a running one is cooperatively cancelled and answers
     * when its executor reaches the next poll point. The Cancel
     * request itself is acknowledged Ok (Error when no such job).
     */
    Cancel = 4,
};

/** The canonical experiment request (CLI-built, wire-carried). */
struct ExperimentRequest
{
    /** Client-chosen correlation id, echoed verbatim in the response. */
    uint64_t id = 0;
    RequestKind kind = RequestKind::Run;
    /**
     * Scheduling priority; lower runs sooner. Ties dispatch in
     * admission order, so equal-priority traffic is FIFO.
     */
    uint32_t priority = 1;
    /** Suite benchmark name, e.g. "gzip" (Run only). */
    std::string benchmark;
    /**
     * Technique selector: "reference" for the full reference run, or
     * "<family>/<permutation>" matched against the benchmark's Table-1
     * permutations, e.g. "SimPoint/multiple 10M" (Run only).
     */
    std::string technique = "reference";
    /**
     * Configuration selector: "arch:N" (Table-3 preset 1..4),
     * "envelope:N" (envelopeConfigs() index), or "pb:N" (row N of the
     * un-folded 43-factor PB design) (Run only).
     */
    std::string config = "arch:1";
    /** Suite scaling the experiment runs under. */
    SuiteConfig suite;
    /**
     * Client deadline in milliseconds from admission; 0 = none (Run
     * only). A job still queued at expiry is answered DeadlineExceeded
     * without executing, by the daemon's I/O loop, which wakes for the
     * earliest queued deadline. A running one trips its executor's
     * next deadline poll and answers DeadlineExceeded within one batch
     * quantum.
     */
    uint64_t deadlineMs = 0;
    /** Correlation id of the job to cancel (Cancel only). */
    uint64_t target = 0;
};

/** Terminal status of a request. */
enum class ResponseStatus : uint32_t {
    Ok = 0,
    /** The request was understood but could not be executed. */
    Error = 1,
    /** Admission control refused it (queue full, quota, draining). */
    Rejected = 2,
    /** Cancelled by a Cancel request before or during execution. */
    Cancelled = 3,
    /** The request's deadline_ms passed before a result was ready. */
    DeadlineExceeded = 4,
};

/** The canonical experiment response. */
struct ExperimentResponse
{
    /** Correlation id echoed from the request. */
    uint64_t id = 0;
    ResponseStatus status = ResponseStatus::Ok;
    /** Human-readable cause when status != Ok. */
    std::string error;
    /** The result's full cache key (Run + Ok only; "" otherwise). */
    std::string key;
    /** The experiment result (Run + Ok only). */
    TechniqueResult result;
    /** Rendered JsonReport (Stats + Ok only; "" otherwise). */
    std::string report;
};

/** Serialize @p request to its canonical payload text. */
std::string encodeRequest(const ExperimentRequest &request);

/**
 * Parse a request payload. Accepts exactly the bytes encodeRequest
 * writes; returns false — with a cause in @p error — on anything else,
 * a byte more or less included. Never aborts: the input is untrusted
 * wire data.
 */
bool decodeRequest(std::string_view payload, ExperimentRequest &request,
                   std::string &error);

/** Serialize @p response to its canonical payload text. */
std::string encodeResponse(const ExperimentResponse &response);

/** Parse a response payload (same contract as decodeRequest). */
bool decodeResponse(std::string_view payload, ExperimentResponse &response,
                    std::string &error);

/** @p request as one complete wire frame. */
std::string frameRequest(const ExperimentRequest &request);

/** @p response as one complete wire frame. */
std::string frameResponse(const ExperimentResponse &response);

/** What takeFrame() found at the head of a byte stream. */
enum class FrameTake {
    /** No complete frame yet: read more bytes. */
    NeedMore,
    /** One frame was removed and verified; its payload is filled in. */
    Taken,
    /**
     * The head of the stream is not a valid frame: the stream has no
     * boundary left to resynchronize to, so drop the peer.
     */
    Broken,
};

/**
 * Remove the first complete frame from @p stream and verify it against
 * (@p magic, kServiceFormatVersion). A frame header announcing more
 * than kMaxServicePayload is Broken before its payload arrives. Broken
 * sets a cause in @p error.
 */
FrameTake takeFrame(std::string &stream, std::string_view magic,
                    std::string &payload, std::string &error);

/**
 * Resolve @p request's technique selector against the benchmark's
 * permutation table. Returns nullptr with a cause in @p error when the
 * selector names nothing.
 */
TechniquePtr resolveTechnique(const ExperimentRequest &request,
                              std::string &error);

/**
 * Resolve @p request's configuration selector. Returns false with a
 * cause in @p error on an unknown scheme or out-of-range index.
 */
bool resolveConfig(const ExperimentRequest &request, SimConfig &config,
                   std::string &error);

/**
 * Execute @p request on @p engine and build its response: validate,
 * resolve technique and configuration, run through the engine's memo /
 * disk caches, and attach the result under its cache key. Validation
 * failures come back as status Error, never as a crash — this is the
 * one execution path shared by the daemon, the CLI's local mode, and
 * the in-process drivers.
 *
 * When @p cancel is a valid token, the run polls it cooperatively and
 * a cancelled run comes back as status Cancelled or DeadlineExceeded
 * (per the token's cause) with no result attached — never an
 * exception, never a partial result.
 */
ExperimentResponse executeRequest(ExperimentEngine &engine,
                                  const ExperimentRequest &request,
                                  CancelToken cancel = CancelToken());

} // namespace yasim

#endif // YASIM_SERVICE_PROTOCOL_HH
