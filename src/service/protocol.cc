#include "service/protocol.hh"

#include <sstream>

#include "core/pb_characterization.hh"
#include "engine/cache_key.hh"
#include "engine/result_io.hh"
#include "sim/config.hh"
#include "stats/plackett_burman.hh"
#include "support/artifact_io.hh"
#include "support/logging.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"

namespace yasim {

namespace {

/** Write an exact-length block: "tag N\n" + N raw bytes + "\n". */
void
writeBlock(std::ostream &os, const char *tag, const std::string &bytes)
{
    os << tag << ' ' << bytes.size() << '\n' << bytes << '\n';
}

/** Consume a block written by writeBlock. */
bool
readBlock(PayloadCursor &in, std::string_view tag, std::string_view &bytes)
{
    uint64_t n = 0;
    return in.literal(tag) && in.literal(" ") && in.number(n) &&
           in.literal("\n") && in.bytes(n, bytes) && in.literal("\n");
}

} // namespace

// yasim-lint: serialized(service)
std::string
encodeRequest(const ExperimentRequest &request)
{
    std::ostringstream os;
    os << "yasim-request " << kServiceFormatVersion << '\n';
    os << "id " << request.id << '\n';
    os << "kind " << uint32_t(request.kind) << '\n';
    os << "priority " << request.priority << '\n';
    os << "deadline " << request.deadlineMs << '\n';
    os << "target " << request.target << '\n';
    os << "bench " << request.benchmark << '\n';
    os << "technique " << request.technique << '\n';
    os << "config " << request.config << '\n';
    os << "ref " << request.suite.referenceInstructions << '\n';
    os << "seed " << request.suite.seed << '\n';
    os << "end\n";
    return os.str();
}

// yasim-lint: serialized(service)
bool
decodeRequest(std::string_view payload, ExperimentRequest &request,
              std::string &error)
{
    PayloadCursor in(payload);
    uint32_t version = 0;
    uint32_t kind = 0;
    if (!in.literal("yasim-request ") || !in.number(version) ||
        version != kServiceFormatVersion) {
        error = "bad payload header";
        return false;
    }
    if (!in.literal("\nid ") || !in.number(request.id) ||
        !in.literal("\nkind ") || !in.number(kind) ||
        kind > uint32_t(RequestKind::Cancel) ||
        !in.literal("\npriority ") || !in.number(request.priority) ||
        !in.literal("\ndeadline ") || !in.number(request.deadlineMs) ||
        !in.literal("\ntarget ") || !in.number(request.target) ||
        !in.literal("\nbench ") || !in.line(request.benchmark) ||
        !in.literal("technique ") || !in.line(request.technique) ||
        !in.literal("config ") || !in.line(request.config) ||
        !in.literal("ref ") ||
        !in.number(request.suite.referenceInstructions) ||
        !in.literal("\nseed ") || !in.number(request.suite.seed) ||
        !in.literal("\nend\n") || !in.done()) {
        error = "malformed request payload";
        return false;
    }
    request.kind = RequestKind(kind);
    return true;
}

// yasim-lint: serialized(service)
std::string
encodeResponse(const ExperimentResponse &response)
{
    std::ostringstream os;
    os << "yasim-response " << kServiceFormatVersion << '\n';
    os << "id " << response.id << '\n';
    os << "status " << uint32_t(response.status) << '\n';
    os << "error " << response.error << '\n';
    os << "key " << response.key << '\n';
    writeBlock(os, "report", response.report);
    std::string result_text;
    if (!response.key.empty()) {
        std::ostringstream ros;
        writeResult(ros, response.key, response.result);
        result_text = ros.str();
    }
    writeBlock(os, "result", result_text);
    os << "end\n";
    return os.str();
}

// yasim-lint: serialized(service)
bool
decodeResponse(std::string_view payload, ExperimentResponse &response,
               std::string &error)
{
    PayloadCursor in(payload);
    uint32_t version = 0;
    uint32_t status = 0;
    std::string_view report, result_text;
    if (!in.literal("yasim-response ") || !in.number(version) ||
        version != kServiceFormatVersion) {
        error = "bad payload header";
        return false;
    }
    if (!in.literal("\nid ") || !in.number(response.id) ||
        !in.literal("\nstatus ") || !in.number(status) ||
        status > uint32_t(ResponseStatus::DeadlineExceeded) ||
        !in.literal("\nerror ") || !in.line(response.error) ||
        !in.literal("key ") || !in.line(response.key) ||
        !readBlock(in, "report", report) ||
        !readBlock(in, "result", result_text) || !in.literal("end\n") ||
        !in.done()) {
        error = "malformed response payload";
        return false;
    }
    response.status = ResponseStatus(status);
    response.report.assign(report);
    // A result travels exactly when a key names it.
    const bool result_ok =
        response.key.empty()
            ? result_text.empty()
            : readResult(result_text, response.key, response.result);
    if (!result_ok)
        error = "bad embedded result";
    return result_ok;
}

std::string
frameRequest(const ExperimentRequest &request)
{
    return encodeFrame(kRequestMagic, kServiceFormatVersion,
                       encodeRequest(request));
}

std::string
frameResponse(const ExperimentResponse &response)
{
    return encodeFrame(kResponseMagic, kServiceFormatVersion,
                       encodeResponse(response));
}

FrameTake
takeFrame(std::string &stream, std::string_view magic,
          std::string &payload, std::string &error)
{
    uint64_t size = 0;
    switch (frameSize(stream, kMaxServicePayload, size)) {
      case FrameSizeStatus::NeedMore:
        return FrameTake::NeedMore;
      case FrameSizeStatus::Malformed:
        error = "malformed frame header";
        return FrameTake::Broken;
      case FrameSizeStatus::Known:
        break;
    }
    if (stream.size() < size)
        return FrameTake::NeedMore;
    const bool ok =
        decodeFrame(std::string_view(stream).substr(0, size_t(size)),
                    magic, kServiceFormatVersion, payload, error);
    stream.erase(0, size_t(size));
    return ok ? FrameTake::Taken : FrameTake::Broken;
}

TechniquePtr
resolveTechnique(const ExperimentRequest &request, std::string &error)
{
    if (!isBenchmark(request.benchmark)) {
        error = "unknown benchmark '" + request.benchmark + "'";
        return nullptr;
    }
    if (request.technique == "reference")
        return std::make_shared<FullReference>();
    size_t slash = request.technique.find('/');
    if (slash == std::string::npos) {
        error = "technique selector '" + request.technique +
                "' is neither \"reference\" nor \"family/permutation\"";
        return nullptr;
    }
    std::string family = request.technique.substr(0, slash);
    std::string permutation = request.technique.substr(slash + 1);
    for (const TechniquePtr &t : table1Permutations(request.benchmark)) {
        if (t->name() == family && t->permutation() == permutation)
            return t;
    }
    error = "no Table-1 permutation '" + request.technique + "' for '" +
            request.benchmark + "'";
    return nullptr;
}

bool
resolveConfig(const ExperimentRequest &request, SimConfig &config,
              std::string &error)
{
    size_t colon = request.config.find(':');
    if (colon == std::string::npos) {
        error = "config selector '" + request.config +
                "' is not \"scheme:index\"";
        return false;
    }
    std::string scheme = request.config.substr(0, colon);
    uint64_t index = 0;
    if (!parseDecimal(std::string_view(request.config).substr(colon + 1),
                      index)) {
        error = "bad config index in '" + request.config + "'";
        return false;
    }
    if (scheme == "arch") {
        if (index < 1 || index > 4) {
            error = "arch config index must be 1..4";
            return false;
        }
        config = architecturalConfig(int(index));
        return true;
    }
    // Each table is built once: rebuilding the 44 PB rows per request
    // cost about half of what serving a cached result does.
    if (scheme == "envelope") {
        static const std::vector<SimConfig> configs = envelopeConfigs();
        if (size_t(index) >= configs.size()) {
            error = "envelope config index out of range";
            return false;
        }
        config = configs[size_t(index)];
        return true;
    }
    if (scheme == "pb") {
        static const std::vector<SimConfig> configs =
            pbDesignConfigs(PbDesign::forFactors(43, false));
        if (size_t(index) >= configs.size()) {
            error = "pb config index out of range";
            return false;
        }
        config = configs[size_t(index)];
        return true;
    }
    error = "unknown config scheme '" + scheme + "'";
    return false;
}

ExperimentResponse
executeRequest(ExperimentEngine &engine,
               const ExperimentRequest &request, CancelToken cancel)
{
    ExperimentResponse response;
    response.id = request.id;

    switch (request.kind) {
      case RequestKind::Ping:
      case RequestKind::Shutdown:
      case RequestKind::Cancel:
        // Shutdown and Cancel are interpreted by the daemon's
        // admission layer; as a plain execution either acknowledges
        // like a ping (in-process there is nothing to drain or
        // cancel).
        return response;
      case RequestKind::Stats:
        response.report = engine.statsReport().render();
        return response;
      case RequestKind::Run:
        break;
    }

    if (request.suite.referenceInstructions < 100000) {
        response.status = ResponseStatus::Error;
        response.error = "ref instructions must be at least 100000";
        return response;
    }
    TechniquePtr technique = resolveTechnique(request, response.error);
    if (!technique) {
        response.status = ResponseStatus::Error;
        return response;
    }
    SimConfig config;
    if (!resolveConfig(request, config, response.error)) {
        response.status = ResponseStatus::Error;
        return response;
    }

    TechniqueContext ctx =
        engine.context(request.benchmark, request.suite);
    ctx.cancel = std::move(cancel);
    try {
        response.result = engine.run(*technique, ctx, config);
    } catch (const CancelledError &cancelled) {
        response.status = cancelled.cause ==
                                  CancelCause::DeadlineExceeded
                              ? ResponseStatus::DeadlineExceeded
                              : ResponseStatus::Cancelled;
        response.error = cancelCauseName(cancelled.cause);
        return response;
    }
    response.key = resultCacheKey(*technique, ctx, config);
    return response;
}

} // namespace yasim
