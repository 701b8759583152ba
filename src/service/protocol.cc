#include "service/protocol.hh"

#include <sstream>

#include "core/pb_characterization.hh"
#include "engine/cache_key.hh"
#include "engine/result_io.hh"
#include "sim/config.hh"
#include "stats/plackett_burman.hh"
#include "support/artifact_io.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"

namespace yasim {

namespace {

/** Read one whole line and return its remainder after "tag ". */
bool
readTagged(std::istream &is, const char *tag, std::string &value)
{
    std::string line;
    // Skip the newline left by a preceding >> extraction.
    while (std::getline(is, line) && line.empty()) {
    }
    size_t tag_len = std::char_traits<char>::length(tag);
    if (line.size() < tag_len + 1 ||
        line.compare(0, tag_len, tag) != 0 || line[tag_len] != ' ')
        return false;
    value = line.substr(tag_len + 1);
    return true;
}

/** Write an exact-length block: "tag N\n" + N raw bytes + "\n". */
void
writeBlock(std::ostream &os, const char *tag, const std::string &bytes)
{
    os << tag << ' ' << bytes.size() << '\n' << bytes << '\n';
}

/** Read a block written by writeBlock (length is wire data: bounded). */
bool
readBlock(std::istream &is, const char *expected_tag, std::string &out)
{
    std::string tag;
    uint64_t n = 0;
    if (!(is >> tag >> n) || tag != expected_tag ||
        n > kMaxServicePayload)
        return false;
    if (is.get() != '\n')
        return false;
    out.resize(n);
    if (n && !is.read(out.data(), std::streamsize(n)))
        return false;
    return is.get() == '\n';
}

/** Consume the trailing "end" marker and require EOF behind it. */
bool
readEnd(std::istream &is)
{
    std::string tag;
    if (!(is >> tag) || tag != "end")
        return false;
    std::string trailing;
    return !(is >> trailing);
}

bool
readHeader(std::istream &is, const char *magic, std::string &error)
{
    std::string tag;
    uint32_t version = 0;
    if (!(is >> tag >> version) || tag != magic) {
        error = "bad payload header";
        return false;
    }
    if (version != kServiceFormatVersion) {
        error = "unsupported payload version";
        return false;
    }
    return true;
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
decodeRequest(const std::string &payload, ExperimentRequest &request,
              std::string &error)
{
    std::istringstream is(payload);
    if (!readHeader(is, "yasim-request", error))
        return false;
    std::string tag;
    uint32_t kind = 0;
    if (!(is >> tag >> request.id) || tag != "id") {
        error = "bad id field";
        return false;
    }
    if (!(is >> tag >> kind) || tag != "kind" ||
        kind > uint32_t(RequestKind::Cancel)) {
        error = "bad kind field";
        return false;
    }
    request.kind = RequestKind(kind);
    if (!(is >> tag >> request.priority) || tag != "priority") {
        error = "bad priority field";
        return false;
    }
    if (!(is >> tag >> request.deadlineMs) || tag != "deadline") {
        error = "bad deadline field";
        return false;
    }
    if (!(is >> tag >> request.target) || tag != "target") {
        error = "bad target field";
        return false;
    }
    if (!readTagged(is, "bench", request.benchmark) ||
        !readTagged(is, "technique", request.technique) ||
        !readTagged(is, "config", request.config)) {
        error = "bad selector field";
        return false;
    }
    if (!(is >> tag >> request.suite.referenceInstructions) ||
        tag != "ref") {
        error = "bad ref field";
        return false;
    }
    if (!(is >> tag >> request.suite.seed) || tag != "seed") {
        error = "bad seed field";
        return false;
    }
    if (!readEnd(is)) {
        error = "bad end marker";
        return false;
    }
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
decodeResponse(const std::string &payload, ExperimentResponse &response,
               std::string &error)
{
    std::istringstream is(payload);
    if (!readHeader(is, "yasim-response", error))
        return false;
    std::string tag;
    uint32_t status = 0;
    if (!(is >> tag >> response.id) || tag != "id") {
        error = "bad id field";
        return false;
    }
    if (!(is >> tag >> status) || tag != "status" ||
        status > uint32_t(ResponseStatus::DeadlineExceeded)) {
        error = "bad status field";
        return false;
    }
    response.status = ResponseStatus(status);
    if (!readTagged(is, "error", response.error) ||
        !readTagged(is, "key", response.key)) {
        error = "bad error/key field";
        return false;
    }
    std::string result_text;
    if (!readBlock(is, "report", response.report) ||
        !readBlock(is, "result", result_text)) {
        error = "bad report/result block";
        return false;
    }
    if (!response.key.empty()) {
        if (!readResult(result_text, response.key, response.result)) {
            error = "bad embedded result";
            return false;
        }
    } else if (!result_text.empty()) {
        error = "result block without a key";
        return false;
    }
    if (!readEnd(is)) {
        error = "bad end marker";
        return false;
    }
    return true;
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
    char *end = nullptr;
    const char *index_text = request.config.c_str() + colon + 1;
    long index = std::strtol(index_text, &end, 10);
    if (end == index_text || *end != '\0' || index < 0) {
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
