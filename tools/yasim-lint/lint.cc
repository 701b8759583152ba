#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "source_model.hh"

namespace yasim::lint {

namespace fs = std::filesystem;

namespace {

/** Rule ids, stable order. */
constexpr const char *kRuleD1 = "D1";
constexpr const char *kRuleD2 = "D2";
constexpr const char *kRuleL1 = "L1";
constexpr const char *kRuleL2 = "L2";
constexpr const char *kRuleS1 = "S1";
constexpr const char *kRuleS2 = "S2";

/** Built-in allowlist: the designated seam files, per rule. */
struct AllowEntry
{
    const char *pathSuffix;
    const char *rule;
};

constexpr AllowEntry kBuiltinAllow[] = {
    // The timing harness: wall-clock measurement is its purpose, and
    // it deliberately benchmarks the raw interpreter against replay.
    {"bench/microbench.cc", kRuleD1},
    {"bench/microbench.cc", kRuleL2},
    // The service load generator: measures wall-clock throughput (its
    // purpose) and builds the in-process daemon's engine directly.
    {"bench/bench_service.cc", kRuleD1},
    {"bench/bench_service.cc", kRuleL2},
    // The one sanctioned temp+rename implementation and the header
    // that declares its calls: every other library persistence path
    // must go through it.
    {"src/support/artifact_io.cc", kRuleS2},
    {"src/support/artifact_io.hh", kRuleS2},
};

/** D1: banned only when invoked (identifier followed by '('). */
const std::set<std::string> kEntropyCalls = {
    "rand",         "srand",   "drand48",      "lrand48",
    "mrand48",      "random",  "time",         "clock",
    "gettimeofday", "timeofday", "clock_gettime",
};

/** D1: banned wherever they appear. */
const std::set<std::string> kEntropyTypes = {
    "random_device",
    "steady_clock",
    "system_clock",
    "high_resolution_clock",
};

/** D2: container templates whose iteration order is unspecified. */
const std::set<std::string> kUnorderedTemplates = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

/** L2: engine/pool internals bench sources must not name. */
const std::set<std::string> kEngineInternals = {
    "EngineOptions",   "TraceStoreOptions", "TraceStore",
    "ThreadPool",      "globalPool",        "setParallelWorkers",
    "FunctionalSim",
};

/** S1: raw-serialization primitives that demand a version marker. */
const std::set<std::string> kSerializationTriggers = {
    "putRaw", "getRaw", "writeBinary", "readBinary", "fwrite", "fread",
};

/** S2: framed-artifact calls only support/artifact_io makes itself. */
const std::set<std::string> kArtifactCalls = {
    "readArtifact", "writeArtifact", "quarantineArtifact", "evictToBudget",
};

/** Layer classification from the path. */
struct Layer
{
    bool techniquesOrCore = false; ///< src/techniques or src/core
    bool bench = false;            ///< bench/
};

Layer
classify(const std::string &path)
{
    Layer layer;
    layer.techniquesOrCore =
        path.find("src/techniques/") != std::string::npos ||
        path.find("src/core/") != std::string::npos;
    layer.bench = path.find("bench/") != std::string::npos &&
                  path.find("src/") == std::string::npos;
    return layer;
}

/**
 * Names of variables/members declared with an unordered container
 * type anywhere in the file (field-sensitive enough at this scale).
 */
std::set<std::string>
unorderedNames(const std::string &code, const std::vector<Token> &tokens)
{
    std::set<std::string> names;
    for (size_t t = 0; t < tokens.size(); ++t) {
        if (!kUnorderedTemplates.count(tokens[t].text))
            continue;
        size_t pos = tokens[t].offset + tokens[t].text.size();
        size_t open = nextSignificantPos(code, pos);
        if (open == std::string::npos || code[open] != '<')
            continue;
        int depth = 0;
        size_t i = open;
        for (; i < code.size(); ++i) {
            if (code[i] == '<')
                ++depth;
            else if (code[i] == '>' && --depth == 0)
                break;
        }
        if (i >= code.size())
            continue;
        size_t after = nextSignificantPos(code, i + 1);
        if (after == std::string::npos)
            continue;
        // Skip reference/pointer declarators.
        while (after < code.size() &&
               (code[after] == '&' || code[after] == '*')) {
            after = nextSignificantPos(code, after + 1);
            if (after == std::string::npos)
                break;
        }
        if (after == std::string::npos || !isIdentChar(code[after]) ||
            std::isdigit(static_cast<unsigned char>(code[after]))) {
            continue;
        }
        // `unordered_map<...>::iterator` is a type use, not a
        // declaration.
        if (code[after] == ':')
            continue;
        size_t end = after;
        while (end < code.size() && isIdentChar(code[end]))
            ++end;
        char following = nextSignificant(code, end);
        if (following == ';' || following == '=' || following == '{' ||
            following == '(' || following == ',' || following == ')') {
            names.insert(code.substr(after, end - after));
        }
    }
    return names;
}

void
addFinding(std::vector<Finding> &findings, const Suppressions &sup,
           const std::string &path, const char *rule, int line,
           std::string message)
{
    if (sup.allows(rule, line))
        return;
    findings.push_back({path, line, rule, std::move(message)});
}

// --- rule implementations -------------------------------------------

void
ruleD1(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    for (const Token &tok : tokens) {
        bool flagged = false;
        std::string what;
        if (kEntropyTypes.count(tok.text)) {
            if (isMemberAccess(code, tok.offset))
                continue;
            flagged = true;
            what = tok.text;
        } else if (kEntropyCalls.count(tok.text)) {
            size_t end = tok.offset + tok.text.size();
            if (nextSignificant(code, end) != '(')
                continue;
            if (isMemberAccess(code, tok.offset) ||
                qualifiedByOtherScope(code, tok.offset)) {
                continue;
            }
            flagged = true;
            what = tok.text + "()";
        }
        if (flagged) {
            addFinding(findings, sup, path, kRuleD1, tok.line,
                       "entropy/wall-clock source '" + what +
                           "' in result-affecting code; use the seeded "
                           "yasim::Rng (support/rng.hh), or move "
                           "timing into an allowlisted harness");
        }
    }
}

void
ruleD2(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    std::set<std::string> names = unorderedNames(code, tokens);
    if (names.empty())
        return;
    for (size_t t = 0; t < tokens.size(); ++t) {
        if (tokens[t].text != "for")
            continue;
        size_t pos = tokens[t].offset + tokens[t].text.size();
        size_t open = nextSignificantPos(code, pos);
        if (open == std::string::npos || code[open] != '(')
            continue;
        int depth = 0;
        size_t colon = std::string::npos;
        size_t close = std::string::npos;
        for (size_t i = open; i < code.size(); ++i) {
            char c = code[i];
            if (c == '(' || c == '[' || c == '{') {
                ++depth;
            } else if (c == ')' || c == ']' || c == '}') {
                if (--depth == 0 && c == ')') {
                    close = i;
                    break;
                }
            } else if (c == ':' && depth == 1 &&
                       colon == std::string::npos) {
                bool scope = (i + 1 < code.size() &&
                              code[i + 1] == ':') ||
                             (i > 0 && code[i - 1] == ':');
                if (!scope)
                    colon = i;
            } else if (c == ';' && depth == 1) {
                // Classic three-clause for loop: not a range-for.
                colon = std::string::npos;
                break;
            }
        }
        if (colon == std::string::npos || close == std::string::npos)
            continue;
        std::string range = code.substr(colon + 1, close - colon - 1);
        // Ranging over the sorting seam is the sanctioned pattern.
        if (range.find("orderedView") != std::string::npos ||
            range.find("sortedKeys") != std::string::npos) {
            continue;
        }
        for (const Token &rt : tokenize(range)) {
            if (!names.count(rt.text))
                continue;
            addFinding(
                findings, sup, path, kRuleD2, tokens[t].line,
                "iteration over unordered container '" + rt.text +
                    "' — order is unspecified and can leak into "
                    "stats, serialization, or cache keys; use "
                    "yasim::orderedView() (support/ordered.hh) or "
                    "suppress if provably order-insensitive");
            break;
        }
    }
}

void
ruleL1(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    if (!classify(path).techniquesOrCore)
        return;
    for (const Token &tok : tokens) {
        if (tok.text != "FunctionalSim")
            continue;
        (void)code;
        addFinding(findings, sup, path, kRuleL1, tok.line,
                   "techniques/core must replay the recorded stream "
                   "(a TraceReplayer from openStream, "
                   "techniques/trace_store.hh), never FunctionalSim "
                   "directly — direct use bypasses trace replay and "
                   "forfeits the bit-identity guarantee");
    }
}

void
ruleL2(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    // Direct naming of engine internals; transitive include-graph
    // reachability is G1's job (analyze.cc).
    if (!classify(path).bench)
        return;
    (void)code;
    for (const Token &tok : tokens) {
        if (!kEngineInternals.count(tok.text))
            continue;
        addFinding(findings, sup, path, kRuleL2, tok.line,
                   "bench drivers must go through BenchDriver / "
                   "SimulationService; '" + tok.text +
                       "' is an engine internal (for custom passes, "
                       "open streams with openStream(ctx, input))");
    }
}

void
ruleS1(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    (void)code;
    const Token *firstTrigger = nullptr;
    bool hasVersion = false;
    for (const Token &tok : tokens) {
        if (!firstTrigger && kSerializationTriggers.count(tok.text))
            firstTrigger = &tok;
        if (tok.text.find("FormatVersion") != std::string::npos ||
            tok.text.find("SerialVersion") != std::string::npos) {
            hasVersion = true;
        }
    }
    if (firstTrigger && !hasVersion) {
        addFinding(findings, sup, path, kRuleS1, firstTrigger->line,
                   "raw serialization ('" + firstTrigger->text +
                       "') without a format-version marker; declare a "
                       "k<Name>FormatVersion constant, write it into "
                       "the byte stream, and verify it on read");
    }
}

void
ruleS2(const std::string &path, const std::string &code,
       const std::vector<Token> &tokens, const Suppressions &sup,
       std::vector<Finding> &findings)
{
    // Library code only: tools and tests may roll their own files.
    if (path.find("src/") == std::string::npos)
        return;
    for (const Token &tok : tokens) {
        if (!kArtifactCalls.count(tok.text) ||
            nextSignificant(code, tok.offset + tok.text.size()) != '(')
            continue;
        addFinding(findings, sup, path, kRuleS2, tok.line,
                   "'" + tok.text + "' called outside "
                   "support/artifact_io — library artifacts load, store, "
                   "count and warn through one ArtifactDir "
                   "(support/artifact_io.hh), not a copy of the "
                   "cache-directory policy");
    }
    bool hasOfstream = false;
    for (const Token &tok : tokens) {
        if (tok.text == "ofstream") {
            hasOfstream = true;
            break;
        }
    }
    if (!hasOfstream)
        return;
    for (const Token &tok : tokens) {
        if (tok.text != "rename")
            continue;
        size_t end = tok.offset + tok.text.size();
        if (nextSignificant(code, end) != '(')
            continue;
        addFinding(findings, sup, path, kRuleS2, tok.line,
                   "hand-rolled artifact persistence (ofstream + "
                   "rename) outside support/artifact_io — checksummed "
                   "framing, fsync, atomic publish, retries, and "
                   "quarantine all live behind writeArtifact()/"
                   "readArtifact() (support/artifact_io.hh); "
                   "copy-pasted temp+rename blocks forfeit them");
    }
}

} // namespace

std::vector<RuleInfo>
ruleCatalog()
{
    return {
        {kRuleD1, "no entropy or wall-clock sources in "
                  "result-affecting code"},
        {kRuleD2, "no direct iteration over unordered containers"},
        {kRuleL1, "techniques/core replay a TraceReplayer, never "
                  "FunctionalSim"},
        {kRuleL2, "bench goes through BenchDriver/SimulationService, "
                  "never engine internals"},
        {kRuleS1, "raw serialization carries a format-version marker"},
        {kRuleS2, "library persistence goes through an ArtifactDir, "
                  "never raw ofstream+rename or framed-artifact calls"},
    };
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text,
           const Options &options)
{
    const std::string norm = normalizePath(path);

    std::set<std::string> active;
    if (options.rules.empty()) {
        for (const RuleInfo &info : ruleCatalog())
            active.insert(info.id);
    } else {
        active.insert(options.rules.begin(), options.rules.end());
    }
    if (options.builtinAllowlist) {
        for (const AllowEntry &entry : kBuiltinAllow) {
            if (pathEndsWith(norm, entry.pathSuffix))
                active.erase(entry.rule);
        }
    }
    for (const std::string &entry : options.extraAllow) {
        size_t sep = entry.rfind(':');
        if (sep == std::string::npos)
            continue;
        if (pathEndsWith(norm, entry.substr(0, sep)))
            active.erase(entry.substr(sep + 1));
    }
    if (active.empty())
        return {};

    MaskedSource masked = maskSource(text);
    Suppressions sup = parseSuppressions(masked);
    std::vector<Token> tokens = tokenize(masked.code);

    std::vector<Finding> findings;
    if (active.count(kRuleD1))
        ruleD1(norm, masked.code, tokens, sup, findings);
    if (active.count(kRuleD2))
        ruleD2(norm, masked.code, tokens, sup, findings);
    if (active.count(kRuleL1))
        ruleL1(norm, masked.code, tokens, sup, findings);
    if (active.count(kRuleL2))
        ruleL2(norm, masked.code, tokens, sup, findings);
    if (active.count(kRuleS1))
        ruleS1(norm, masked.code, tokens, sup, findings);
    if (active.count(kRuleS2))
        ruleS2(norm, masked.code, tokens, sup, findings);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    for (Finding &f : findings)
        f.file = path;
    return findings;
}

std::vector<Finding>
lintFile(const std::string &path, const Options &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {{path, 0, "IO", "cannot read file"}};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintSource(path, buffer.str(), options);
}

std::vector<Finding>
lintTree(const std::vector<std::string> &roots, const Options &options)
{
    const std::set<std::string> extensions = {".cc", ".hh", ".cpp",
                                              ".h"};
    std::vector<std::string> files;
    for (const std::string &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator
                     it(root, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end; it.increment(ec)) {
                if (ec)
                    break;
                if (it->is_directory() &&
                    it->path().filename() == "lint_fixtures") {
                    it.disable_recursion_pending();
                    continue;
                }
                if (!it->is_regular_file())
                    continue;
                if (extensions.count(it->path().extension().string()))
                    files.push_back(it->path().string());
            }
        } else {
            files.push_back(root);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const std::string &file : files) {
        std::vector<Finding> found = lintFile(file, options);
        findings.insert(findings.end(), found.begin(), found.end());
    }
    return findings;
}

} // namespace yasim::lint
