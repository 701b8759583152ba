#include "analyze.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "source_model.hh"
#include "support/parallel.hh"

namespace yasim::lint {

namespace fs = std::filesystem;

namespace {

constexpr const char *kRuleG1 = "G1";
constexpr const char *kRuleK1 = "K1";
constexpr const char *kRuleV1 = "V1";
constexpr const char *kRuleC2 = "C2";
constexpr const char *kRuleH1 = "H1";
constexpr const char *kRuleIo = "IO";

/** Identifiers that look like calls but are control flow or macros. */
const std::set<std::string> kNotFunctionNames = {
    "if",      "for",      "while",    "switch",   "catch",
    "return",  "sizeof",   "alignof",  "decltype", "noexcept",
    "do",      "else",     "new",      "delete",   "throw",
    "static_assert", "defined",  "assert",
    "YASIM_CHECK", "YASIM_DCHECK", "YASIM_ASSERT",
};

/** Declaration-qualifier tokens that make static state benign (C2). */
const std::set<std::string> kImmutableMarkers = {
    "const",     "constexpr", "constinit",          "thread_local",
    "atomic",    "atomic_flag", "atomic_bool",      "atomic_int",
    "atomic_uint64_t", "mutex", "shared_mutex",     "recursive_mutex",
    "once_flag", "condition_variable",
};

// --- project model ---------------------------------------------------

struct IncludeEdge
{
    std::string spelled;  ///< path as written between the quotes
    std::string resolved; ///< root-relative indexed path ("" if none)
    int line = 0;
    bool quoted = false;
};

struct FileModel
{
    std::string path;    ///< root-relative, '/'-separated
    std::string absPath; ///< as on disk, for reads and --fix rewrites
    std::string text;
    MaskedSource masked;
    std::vector<Token> tokens;
    Suppressions sup;
    std::vector<IncludeEdge> includes;
    std::vector<Finding> tokenFindings;
    bool readable = true;
};

/** The parsed repository: files plus the resolved include graph. */
struct Project
{
    std::vector<FileModel> files;
    std::map<std::string, size_t> byPath;

    const FileModel *find(const std::string &path) const
    {
        auto it = byPath.find(path);
        return it == byPath.end() ? nullptr : &files[it->second];
    }

    /** First indexed file whose path ends with @p suffix. */
    const FileModel *findBySuffix(const std::string &suffix) const
    {
        for (const FileModel &f : files) {
            if (pathEndsWith(f.path, suffix))
                return &f;
        }
        return nullptr;
    }
};

std::vector<IncludeEdge>
scanIncludes(const std::string &text)
{
    std::vector<IncludeEdge> edges;
    int line = 1;
    size_t i = 0;
    while (i < text.size()) {
        size_t eol = text.find('\n', i);
        if (eol == std::string::npos)
            eol = text.size();
        size_t p = i;
        while (p < eol && std::isspace(static_cast<unsigned char>(
                              text[p])))
            ++p;
        if (p < eol && text[p] == '#') {
            ++p;
            while (p < eol && std::isspace(static_cast<unsigned char>(
                                  text[p])))
                ++p;
            if (text.compare(p, 7, "include") == 0) {
                p += 7;
                while (p < eol &&
                       std::isspace(
                           static_cast<unsigned char>(text[p])))
                    ++p;
                if (p < eol && (text[p] == '"' || text[p] == '<')) {
                    char closer = text[p] == '"' ? '"' : '>';
                    size_t end = text.find(closer, p + 1);
                    if (end != std::string::npos && end < eol) {
                        edges.push_back({text.substr(p + 1, end - p - 1),
                                         "", line, text[p] == '"'});
                    }
                }
            }
        }
        i = eol + 1;
        ++line;
    }
    return edges;
}

std::string
dirName(const std::string &path)
{
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string
stemOf(const std::string &path)
{
    std::string base = path;
    size_t slash = base.rfind('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    size_t dot = base.rfind('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

/** Lexically collapse "a/b/../c" and "./" segments. */
std::string
collapsePath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(path);
    while (std::getline(in, part, '/')) {
        if (part.empty() || part == ".")
            continue;
        if (part == ".." && !parts.empty() && parts.back() != "..")
            parts.pop_back();
        else
            parts.push_back(part);
    }
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i)
        out += (i ? "/" : "") + parts[i];
    return out;
}

void
resolveIncludes(Project &project)
{
    for (FileModel &file : project.files) {
        for (IncludeEdge &edge : file.includes) {
            if (!edge.quoted)
                continue;
            std::string spelled = normalizePath(edge.spelled);
            std::string dir = dirName(file.path);
            const std::string candidates[] = {
                collapsePath(dir.empty() ? spelled
                                         : dir + "/" + spelled),
                "src/" + spelled,
                spelled,
            };
            for (const std::string &candidate : candidates) {
                if (project.byPath.count(candidate)) {
                    edge.resolved = candidate;
                    break;
                }
            }
        }
    }
}

/** Tokens of @p file whose offsets fall inside [begin, end]. */
std::pair<size_t, size_t>
tokenRange(const FileModel &file, size_t begin, size_t end)
{
    auto lo = std::lower_bound(
        file.tokens.begin(), file.tokens.end(), begin,
        [](const Token &t, size_t off) { return t.offset < off; });
    auto hi = std::lower_bound(
        file.tokens.begin(), file.tokens.end(), end + 1,
        [](const Token &t, size_t off) { return t.offset < off; });
    return {static_cast<size_t>(lo - file.tokens.begin()),
            static_cast<size_t>(hi - file.tokens.begin())};
}

// --- annotation-declared analysis targets ----------------------------

/** `key(<key>) covers <Struct>(<header>)` on a stamp function. */
struct KeyCover
{
    std::string key;
    std::string structName;
    std::string header;
    const FileModel *stampFile = nullptr;
    int directiveLine = 0;
    /** Resolved stamp-function body (token indices + offsets). */
    bool haveBody = false;
    FunctionBody body;
};

/** `serialized(<unit>)` on a save/load function. */
struct SerializedFn
{
    std::string unit;
    const FileModel *file = nullptr;
    int directiveLine = 0;
    bool haveBody = false;
    FunctionBody body;
};

/** `version(<unit>)` on a k*FormatVersion constant. */
struct VersionDecl
{
    std::string unit;
    const FileModel *file = nullptr;
    int line = 0; ///< line of the constant declaration
    std::string name;
    long value = -1;
    bool parsed = false;
};

struct Annotations
{
    std::vector<KeyCover> covers;
    std::vector<SerializedFn> serialized;
    std::vector<VersionDecl> versions;
};

/** Trim leading/trailing whitespace. */
std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Function bodies of @p file in source order, excluding control-flow
 * keywords that mimic the `name(...) {` shape.
 */
std::vector<FunctionBody>
allFunctionBodies(const FileModel &file)
{
    std::set<std::string> names;
    for (const Token &tok : file.tokens) {
        if (!kNotFunctionNames.count(tok.text))
            names.insert(tok.text);
    }
    std::vector<FunctionBody> bodies =
        findFunctionBodies(file.masked.code, file.tokens, names);
    std::sort(bodies.begin(), bodies.end(),
              [](const FunctionBody &a, const FunctionBody &b) {
                  return a.bodyBegin < b.bodyBegin;
              });
    return bodies;
}

/**
 * The function a directive on comment-line @p line annotates: the
 * first definition whose name appears on or after the directive's
 * target line.
 */
bool
resolveAnnotatedFunction(const FileModel &file,
                         const std::vector<FunctionBody> &bodies,
                         int line, FunctionBody &out)
{
    int target = line;
    {
        // Directives sit above the (possibly multi-line) signature;
        // accept the first body starting at or after the directive.
        (void)file;
    }
    for (const FunctionBody &body : bodies) {
        if (body.line >= target) {
            out = body;
            return true;
        }
    }
    return false;
}

/** Parse "name(arg)" style segments out of a directive string. */
bool
parseCall(const std::string &directive, const std::string &head,
          std::string &arg, size_t *after = nullptr)
{
    size_t at = directive.find(head + "(");
    if (at == std::string::npos)
        return false;
    size_t open = at + head.size();
    size_t close = directive.find(')', open);
    if (close == std::string::npos)
        return false;
    arg = trimmed(directive.substr(open + 1, close - open - 1));
    if (after)
        *after = close + 1;
    return !arg.empty();
}

Annotations
collectAnnotations(const Project &project,
                   std::vector<Finding> &findings)
{
    Annotations ann;
    for (const FileModel &file : project.files) {
        std::vector<FunctionBody> bodies;
        bool haveBodies = false;
        auto bodiesOf = [&]() -> const std::vector<FunctionBody> & {
            if (!haveBodies) {
                bodies = allFunctionBodies(file);
                haveBodies = true;
            }
            return bodies;
        };
        for (const auto &[line, text] : file.masked.comments) {
            size_t at = text.find("yasim-lint:");
            if (at == std::string::npos)
                continue;
            std::string directive = text.substr(at + 11);

            std::string arg;
            size_t after = 0;
            // key-exempt( also contains "key(" as a substring? No —
            // "key-exempt(" has '-' after "key", so key( won't match
            // it, but guard against accidental overlap explicitly.
            if (directive.find("key-exempt(") == std::string::npos &&
                parseCall(directive, "key", arg, &after)) {
                std::string rest = directive.substr(after);
                size_t coversAt = rest.find("covers");
                if (coversAt == std::string::npos) {
                    findings.push_back(
                        {file.path, line, kRuleK1,
                         "malformed key() annotation: expected "
                         "'key(<key>) covers <Struct>(<header>)'"});
                    continue;
                }
                std::string target = rest.substr(coversAt + 6);
                size_t open = target.find('(');
                size_t close = target.find(')');
                if (open == std::string::npos ||
                    close == std::string::npos || close < open) {
                    findings.push_back(
                        {file.path, line, kRuleK1,
                         "malformed key() annotation: expected "
                         "'covers <Struct>(<header>)'"});
                    continue;
                }
                KeyCover cover;
                cover.key = arg;
                cover.structName = trimmed(target.substr(0, open));
                cover.header = trimmed(
                    target.substr(open + 1, close - open - 1));
                cover.stampFile = &file;
                cover.directiveLine = line;
                cover.haveBody = resolveAnnotatedFunction(
                    file, bodiesOf(), line, cover.body);
                if (!cover.haveBody) {
                    findings.push_back(
                        {file.path, line, kRuleK1,
                         "key() annotation has no function definition "
                         "after it"});
                    continue;
                }
                ann.covers.push_back(std::move(cover));
            } else if (parseCall(directive, "serialized", arg)) {
                SerializedFn fn;
                fn.unit = arg;
                fn.file = &file;
                fn.directiveLine = line;
                fn.haveBody = resolveAnnotatedFunction(
                    file, bodiesOf(), line, fn.body);
                if (!fn.haveBody) {
                    findings.push_back(
                        {file.path, line, kRuleV1,
                         "serialized() annotation has no function "
                         "definition after it"});
                    continue;
                }
                ann.serialized.push_back(std::move(fn));
            } else if (parseCall(directive, "version", arg)) {
                VersionDecl decl;
                decl.unit = arg;
                decl.file = &file;
                // The annotated declaration: the directive's own line
                // if it has code, else the next line with code.
                int target = line;
                auto hasCode = file.masked.lineHasCode.find(line);
                if (hasCode == file.masked.lineHasCode.end() ||
                    !hasCode->second) {
                    auto next =
                        file.masked.lineHasCode.upper_bound(line);
                    if (next != file.masked.lineHasCode.end())
                        target = next->first;
                }
                decl.line = target;
                // Parse "<name> = <integer>": the '=' on the target
                // line, the last identifier before it, the number
                // after it.
                size_t lineBegin = std::string::npos;
                size_t eq = std::string::npos;
                const Token *nameTok = nullptr;
                for (const Token &tok : file.tokens) {
                    if (tok.line < target)
                        continue;
                    if (tok.line > target)
                        break;
                    if (lineBegin == std::string::npos) {
                        lineBegin = tok.offset;
                        eq = file.masked.code.find('=', lineBegin);
                    }
                    if (eq != std::string::npos && tok.offset < eq)
                        nameTok = &tok;
                }
                if (nameTok && eq != std::string::npos) {
                    size_t v =
                        nextSignificantPos(file.masked.code, eq + 1);
                    if (v != std::string::npos &&
                        std::isdigit(static_cast<unsigned char>(
                            file.masked.code[v]))) {
                        decl.name = nameTok->text;
                        decl.value = std::strtol(
                            file.masked.code.c_str() + v, nullptr, 10);
                        decl.parsed = true;
                    }
                }
                if (!decl.parsed) {
                    findings.push_back(
                        {file.path, line, kRuleV1,
                         "version() annotation: could not parse "
                         "'<name> = <integer>' on the next line"});
                    continue;
                }
                ann.versions.push_back(std::move(decl));
            }
        }
    }
    return ann;
}

// --- G1: layering by reachability ------------------------------------

struct LayerPolicy
{
    /** Path fragments that put a file in scope. */
    std::vector<std::string> scope;
    /** Forbidden header suffixes. */
    std::vector<std::string> forbidden;
    /** Sanctioned seam headers: reachability stops at them. */
    std::vector<std::string> seams;
    /** Appended to the finding message. */
    std::string remedy;
};

bool
matchesAnySuffix(const std::string &path,
                 const std::vector<std::string> &suffixes)
{
    for (const std::string &suffix : suffixes) {
        if (pathEndsWith(path, suffix))
            return true;
    }
    return false;
}

void
ruleG1(const Project &project, std::vector<Finding> &findings)
{
    const std::vector<LayerPolicy> policies = {
        {{"src/techniques/", "src/core/"},
         {"sim/functional.hh"},
         {"techniques/trace_store.hh"},
         "replay the recording through a TraceReplayer (openStream, "
         "techniques/trace_store.hh) instead"},
        {{"bench/"},
         {"support/thread_pool.hh", "support/parallel.hh",
          "engine/engine.hh", "sim/functional.hh"},
         {"engine/bench_driver.hh", "engine/options.hh",
          "engine/result_io.hh", "techniques/service.hh",
          "service/client.hh", "service/daemon.hh"},
         "go through BenchDriver / SimulationService (the engine "
         "parallelizes and caches internally)"},
    };

    for (const LayerPolicy &policy : policies) {
        // A seam's own implementation file is the one sanctioned
        // place that touches what the seam hides.
        std::set<std::string> seamStems;
        for (const std::string &seam : policy.seams)
            seamStems.insert(stemOf(seam));

        for (const FileModel &file : project.files) {
            bool inScope = false;
            for (const std::string &fragment : policy.scope) {
                if (file.path.find(fragment) != std::string::npos)
                    inScope = true;
            }
            if (!inScope || seamStems.count(stemOf(file.path)))
                continue;

            // BFS over resolved includes, opaque at seam headers.
            std::map<std::string, std::string> parent;
            std::vector<std::string> queue = {file.path};
            parent[file.path] = "";
            for (size_t qi = 0; qi < queue.size(); ++qi) {
                const FileModel *node = project.find(queue[qi]);
                if (!node)
                    continue;
                for (const IncludeEdge &edge : node->includes) {
                    if (edge.resolved.empty() ||
                        parent.count(edge.resolved))
                        continue;
                    parent[edge.resolved] = node->path;
                    if (matchesAnySuffix(edge.resolved, policy.seams))
                        continue; // sanctioned: don't look behind it
                    queue.push_back(edge.resolved);
                }
            }

            for (const auto &[reached, from] : parent) {
                if (reached == file.path ||
                    !matchesAnySuffix(reached, policy.forbidden))
                    continue;
                // Reconstruct the chain and anchor the finding on the
                // direct include that starts it.
                std::vector<std::string> chain;
                for (std::string hop = reached; !hop.empty();
                     hop = parent[hop])
                    chain.push_back(hop);
                std::reverse(chain.begin(), chain.end());
                int line = 1;
                for (const IncludeEdge &edge : file.includes) {
                    if (edge.resolved == chain[1]) {
                        line = edge.line;
                        break;
                    }
                }
                if (file.sup.allows(kRuleG1, line))
                    continue;
                std::string text;
                for (size_t i = 1; i < chain.size(); ++i)
                    text += (i > 1 ? " -> " : "") + chain[i];
                findings.push_back(
                    {file.path, line, kRuleG1,
                     "reaches " + reached +
                         " through the include graph (" + text +
                         "); " + policy.remedy});
            }
        }
    }
}

// --- K1: cache-key completeness --------------------------------------

struct FieldDecl
{
    std::string name;
    int line = 0;
};

/**
 * Member fields of @p structName declared in @p hdr. Statement-based:
 * the struct body is split into top-level statements; statements with
 * a parameter list (functions), nested types, usings, and statics are
 * skipped; the declared name is the last identifier before the
 * initializer or the semicolon.
 */
std::vector<FieldDecl>
structFields(const FileModel &hdr, const std::string &structName,
             bool *found)
{
    *found = false;
    const std::string &code = hdr.masked.code;
    size_t bodyOpen = std::string::npos;
    for (size_t t = 0; t + 1 < hdr.tokens.size(); ++t) {
        if ((hdr.tokens[t].text != "struct" &&
             hdr.tokens[t].text != "class") ||
            hdr.tokens[t + 1].text != structName)
            continue;
        // Scan past any base-class clause for '{'; ';' means forward
        // declaration.
        size_t p = hdr.tokens[t + 1].offset + structName.size();
        while (p < code.size() && code[p] != '{' && code[p] != ';')
            ++p;
        if (p < code.size() && code[p] == '{') {
            bodyOpen = p;
            break;
        }
    }
    std::vector<FieldDecl> fields;
    if (bodyOpen == std::string::npos)
        return fields;
    *found = true;

    int depth = 0;
    size_t bodyClose = bodyOpen;
    for (; bodyClose < code.size(); ++bodyClose) {
        if (code[bodyClose] == '{')
            ++depth;
        else if (code[bodyClose] == '}' && --depth == 0)
            break;
    }

    const std::set<std::string> kSkipWords = {
        "using",  "typedef", "friend", "static", "struct",
        "class",  "enum",    "union",  "template", "operator",
    };

    size_t stmtStart = bodyOpen + 1;
    size_t i = bodyOpen + 1;
    bool hasParen = false;
    size_t terminator = std::string::npos;
    while (i < bodyClose) {
        char c = code[i];
        if (c == '(') {
            hasParen = true;
            int d = 0;
            for (; i < bodyClose; ++i) {
                if (code[i] == '(')
                    ++d;
                else if (code[i] == ')' && --d == 0)
                    break;
            }
        } else if (c == '{') {
            // Brace group: skip it; a ';' right after makes it an
            // initializer (part of the statement), otherwise it ends
            // the statement (function/class definition).
            if (terminator == std::string::npos)
                terminator = i;
            int d = 0;
            size_t j = i;
            for (; j < bodyClose; ++j) {
                if (code[j] == '{')
                    ++d;
                else if (code[j] == '}' && --d == 0)
                    break;
            }
            size_t next = nextSignificantPos(code, j + 1);
            if (next != std::string::npos && next < bodyClose &&
                code[next] == ';') {
                i = next; // fall through to the ';' handling below
                c = ';';
            } else {
                // Definition: discard this statement.
                stmtStart = j + 1;
                i = j + 1;
                hasParen = false;
                terminator = std::string::npos;
                continue;
            }
        }
        if (c == ';') {
            size_t end = terminator == std::string::npos
                             ? i
                             : std::min(terminator, i);
            // '=' initializer bounds the declarator too.
            auto [lo, hi] = tokenRange(hdr, stmtStart, end - 1);
            size_t eq = std::string::npos;
            for (size_t p = stmtStart; p < end; ++p) {
                if (code[p] == '=' &&
                    (p + 1 >= code.size() || code[p + 1] != '=') &&
                    (p == 0 || (code[p - 1] != '=' &&
                                code[p - 1] != '!' &&
                                code[p - 1] != '<' &&
                                code[p - 1] != '>'))) {
                    eq = p;
                    break;
                }
            }
            bool skip = hasParen;
            const Token *nameTok = nullptr;
            for (size_t t = lo; t < hi; ++t) {
                const Token &tok = hdr.tokens[t];
                if (kSkipWords.count(tok.text)) {
                    skip = true;
                    break;
                }
                if (eq == std::string::npos || tok.offset < eq)
                    nameTok = &tok;
            }
            if (!skip && nameTok) {
                fields.push_back({nameTok->text, nameTok->line});
            }
            stmtStart = i + 1;
            hasParen = false;
            terminator = std::string::npos;
        }
        ++i;
    }
    return fields;
}

void
ruleK1(const Project &project, const Annotations &ann,
       std::vector<Finding> &findings)
{
    for (const KeyCover &cover : ann.covers) {
        const FileModel *hdr = project.findBySuffix(cover.header);
        if (!hdr) {
            findings.push_back(
                {cover.stampFile->path, cover.directiveLine, kRuleK1,
                 "key() annotation names header '" + cover.header +
                     "', which is not in the analyzed tree"});
            continue;
        }
        bool found = false;
        std::vector<FieldDecl> fields =
            structFields(*hdr, cover.structName, &found);
        if (!found) {
            findings.push_back(
                {cover.stampFile->path, cover.directiveLine, kRuleK1,
                 "key() annotation names struct '" + cover.structName +
                     "', which was not found in " + hdr->path});
            continue;
        }
        // Every identifier inside the stamp function body counts as a
        // stamped field mention (member access yields the bare name).
        auto [lo, hi] = tokenRange(*cover.stampFile, cover.body.bodyBegin,
                                   cover.body.bodyEnd);
        std::set<std::string> stamped;
        for (size_t t = lo; t < hi; ++t)
            stamped.insert(cover.stampFile->tokens[t].text);

        for (const FieldDecl &field : fields) {
            if (stamped.count(field.name))
                continue;
            if (hdr->sup.exemptFromKey(cover.key, field.line) ||
                hdr->sup.allows(kRuleK1, field.line))
                continue;
            findings.push_back(
                {hdr->path, field.line, kRuleK1,
                 "field '" + cover.structName + "::" + field.name +
                     "' is not stamped into the '" + cover.key +
                     "' cache key (" + cover.stampFile->path + ":" +
                     std::to_string(cover.body.line) + " " +
                     cover.body.name +
                     ") — a simulation-affecting field missing from "
                     "the key silently serves stale cached results; "
                     "stamp it, or annotate the field with "
                     "'yasim-lint: key-exempt(" +
                     cover.key + ": <reason>)'"});
        }
    }
}

// --- V1: serialization drift -----------------------------------------

struct LockEntry
{
    std::string versionName;
    long versionValue = -1;
    uint64_t fingerprint = 0;
    size_t functions = 0;
};

std::string
hex64(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

bool
parseLock(const std::string &text, std::map<std::string, LockEntry> &out,
          std::string &error)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::istringstream fields(t);
        std::string unit, version, fingerprint, functions;
        fields >> unit >> version >> fingerprint >> functions;
        size_t eq = version.find('=');
        LockEntry entry;
        bool ok = !unit.empty() && eq != std::string::npos &&
                  fingerprint.compare(0, 12, "fingerprint=") == 0 &&
                  functions.compare(0, 10, "functions=") == 0;
        if (ok) {
            entry.versionName = version.substr(0, eq);
            char *end = nullptr;
            entry.versionValue =
                std::strtol(version.c_str() + eq + 1, &end, 10);
            std::string hex = fingerprint.substr(12);
            ok = end && *end == '\0' && hex.size() == 16;
            if (ok) {
                for (char c : hex) {
                    if (!std::isxdigit(static_cast<unsigned char>(c)))
                        ok = false;
                }
            }
            if (ok) {
                entry.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
                entry.functions = std::strtoul(
                    functions.c_str() + 10, nullptr, 10);
            }
        }
        if (!ok) {
            error = "unparsable line " + std::to_string(lineNo) +
                    ": '" + t + "'";
            return false;
        }
        out[unit] = entry;
    }
    return true;
}

void
ruleV1(const Annotations &ann, const std::string &lockPath,
       bool updateLock, std::vector<Finding> &findings)
{
    if (ann.serialized.empty() && !updateLock)
        return;

    // Current state: per-unit combined fingerprint over the bodies of
    // every serialized() function, in (file, line) order so the value
    // is stable whatever the scan order.
    struct Unit
    {
        std::vector<const SerializedFn *> fns;
        const VersionDecl *version = nullptr;
    };
    std::map<std::string, Unit> units;
    for (const SerializedFn &fn : ann.serialized)
        units[fn.unit].fns.push_back(&fn);
    for (const VersionDecl &decl : ann.versions) {
        if (units[decl.unit].version == nullptr)
            units[decl.unit].version = &decl;
    }

    std::map<std::string, LockEntry> current;
    for (auto &[name, unit] : units) {
        if (unit.fns.empty())
            continue; // version() with no serialized() fns (yet)
        std::sort(unit.fns.begin(), unit.fns.end(),
                  [](const SerializedFn *a, const SerializedFn *b) {
                      if (a->file->path != b->file->path)
                          return a->file->path < b->file->path;
                      return a->body.bodyBegin < b->body.bodyBegin;
                  });
        if (!unit.version) {
            const SerializedFn *first = unit.fns.front();
            findings.push_back(
                {first->file->path, first->body.line, kRuleV1,
                 "serialization unit '" + name +
                     "' has serialized() functions but no "
                     "'yasim-lint: version(" + name +
                     ")' annotation on its format-version constant"});
            continue;
        }
        uint64_t combined = 1469598103934665603ull;
        for (const SerializedFn *fn : unit.fns) {
            combined ^= fingerprintRange(fn->file->masked.code,
                                         fn->body.bodyBegin,
                                         fn->body.bodyEnd + 1);
            combined *= 1099511628211ull;
        }
        LockEntry entry;
        entry.versionName = unit.version->name;
        entry.versionValue = unit.version->value;
        entry.fingerprint = combined;
        entry.functions = unit.fns.size();
        current[name] = entry;
    }

    if (updateLock) {
        std::ostringstream out;
        out << "# yasim-analyze serialization lock.\n"
            << "# One line per framed serialization unit:\n"
            << "#   <unit> <versionConst>=<value> fingerprint=<hex64> "
               "functions=<n>\n"
            << "# The fingerprint covers the bodies of every function "
               "annotated\n"
            << "# 'yasim-lint: serialized(<unit>)'. Regenerate with "
               "--update-lock\n"
            << "# in the same commit that bumps the version "
               "constant.\n";
        for (const auto &[name, entry] : current) {
            out << name << " " << entry.versionName << "="
                << entry.versionValue
                << " fingerprint=" << hex64(entry.fingerprint)
                << " functions=" << entry.functions << "\n";
        }
        std::ofstream file(lockPath, std::ios::binary);
        if (!file || !(file << out.str())) {
            findings.push_back({lockPath, 0, kRuleIo,
                                "cannot write serialization lock"});
        }
        return;
    }

    std::ifstream in(lockPath, std::ios::binary);
    if (!in) {
        findings.push_back(
            {lockPath, 0, kRuleV1,
             "serialization lock missing — run yasim-analyze "
             "--update-lock and commit the result"});
        return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::map<std::string, LockEntry> locked;
    std::string error;
    if (!parseLock(buffer.str(), locked, error)) {
        findings.push_back({lockPath, 0, kRuleIo,
                            "corrupt serialization lock: " + error});
        return;
    }

    for (const auto &[name, entry] : current) {
        auto it = locked.find(name);
        const VersionDecl *decl = units[name].version;
        if (it == locked.end()) {
            findings.push_back(
                {decl->file->path, decl->line, kRuleV1,
                 "serialization unit '" + name +
                     "' is not recorded in " + lockPath +
                     " — run yasim-analyze --update-lock"});
            continue;
        }
        const LockEntry &old = it->second;
        bool fpSame = old.fingerprint == entry.fingerprint &&
                      old.functions == entry.functions;
        bool verSame = old.versionValue == entry.versionValue &&
                       old.versionName == entry.versionName;
        if (fpSame && verSame)
            continue;
        if (!fpSame && verSame) {
            findings.push_back(
                {decl->file->path, decl->line, kRuleV1,
                 "serialized layout of unit '" + name +
                     "' changed (fingerprint " +
                     hex64(old.fingerprint) + " -> " +
                     hex64(entry.fingerprint) + ") but " +
                     entry.versionName + " is still " +
                     std::to_string(entry.versionValue) +
                     " — old artifacts would decode as garbage or "
                     "stale data; bump the version, then run "
                     "yasim-analyze --update-lock"});
        } else {
            findings.push_back(
                {decl->file->path, decl->line, kRuleV1,
                 "serialization unit '" + name +
                     "' changed (version " +
                     std::to_string(old.versionValue) + " -> " +
                     std::to_string(entry.versionValue) +
                     ") — run yasim-analyze --update-lock to record "
                     "the new fingerprint"});
        }
    }
    for (const auto &[name, entry] : locked) {
        if (!current.count(name)) {
            findings.push_back(
                {lockPath, 0, kRuleV1,
                 "stale lock entry '" + name +
                     "': no serialized() functions remain — run "
                     "yasim-analyze --update-lock"});
        }
    }
}

// --- C2: shared mutable state ----------------------------------------

/** Headers whose includers submit work to shared executors. */
const std::vector<std::string> kExecutorHeaders = {
    "support/thread_pool.hh",
    "support/parallel.hh",
    "service/daemon.hh",
};

/**
 * Files reachable from executor-submitting roots: BFS over includes,
 * plus every header's sibling implementation file (a task calling
 * through foo.hh executes foo.cc).
 */
std::set<std::string>
executorReachable(const Project &project)
{
    std::vector<std::string> queue;
    std::set<std::string> reachable;
    auto add = [&](const std::string &path) {
        if (reachable.insert(path).second)
            queue.push_back(path);
    };
    for (const FileModel &file : project.files) {
        for (const IncludeEdge &edge : file.includes) {
            if (!edge.resolved.empty() &&
                matchesAnySuffix(edge.resolved, kExecutorHeaders)) {
                add(file.path);
                break;
            }
        }
    }
    for (size_t qi = 0; qi < queue.size(); ++qi) {
        const FileModel *node = project.find(queue[qi]);
        if (!node)
            continue;
        for (const IncludeEdge &edge : node->includes) {
            if (edge.resolved.empty())
                continue;
            add(edge.resolved);
            // header -> implementation
            std::string stem = dirName(edge.resolved);
            stem = (stem.empty() ? "" : stem + "/") +
                   stemOf(edge.resolved);
            for (const char *ext : {".cc", ".cpp"}) {
                if (project.byPath.count(stem + ext))
                    add(stem + ext);
            }
        }
    }
    return reachable;
}

/** Scope kinds for the brace-structure walk. */
enum class ScopeKind { Namespace, Type, Function, Other };

/** Words that may stand between a parameter list and its body. */
const std::set<std::string> kTrailingQualifiers = {
    "const", "override", "noexcept", "final",
};

/**
 * Flag mutable static-storage declarations in @p file: namespace-scope
 * variables and function-local statics without an immutability marker
 * or a guarded(<mutex>) annotation.
 */
void
scanSharedState(const FileModel &file, std::vector<Finding> &findings)
{
    const std::string &code = file.masked.code;
    std::vector<ScopeKind> scopes;

    const std::set<std::string> kSkipWords = {
        "using", "typedef", "friend", "struct", "class",  "enum",
        "union", "template", "operator", "extern", "namespace",
        "static_assert",
    };

    auto atNamespaceScope = [&]() {
        for (ScopeKind kind : scopes) {
            if (kind != ScopeKind::Namespace)
                return false;
        }
        return true;
    };

    auto classifyBrace = [&](size_t at) {
        // Look back to the previous ';', '{', or '}' and classify by
        // what introduced this brace.
        size_t start = at;
        while (start > 0 && code[start - 1] != ';' &&
               code[start - 1] != '{' && code[start - 1] != '}')
            --start;
        std::string intro = code.substr(start, at - start);
        for (const Token &tok : tokenize(intro)) {
            if (tok.text == "namespace")
                return ScopeKind::Namespace;
            if (tok.text == "struct" || tok.text == "class" ||
                tok.text == "union" || tok.text == "enum")
                return ScopeKind::Type;
        }
        // A function body follows the parameter list, perhaps through
        // trailing qualifiers: ") const {", ") override {".
        size_t prev = prevSignificantPos(code, at);
        while (prev != std::string::npos && isIdentChar(code[prev])) {
            size_t word = prev;
            while (word > 0 && isIdentChar(code[word - 1]))
                --word;
            if (!kTrailingQualifiers.count(
                    code.substr(word, prev + 1 - word)))
                break;
            prev = prevSignificantPos(code, word);
        }
        if (prev != std::string::npos && code[prev] == ')')
            return ScopeKind::Function;
        return ScopeKind::Other;
    };

    auto examine = [&](size_t stmtStart, size_t stmtEnd, bool hasParen,
                       bool inFunction) {
        auto [lo, hi] = tokenRange(file, stmtStart, stmtEnd);
        if (lo >= hi)
            return;
        bool isStatic = false;
        bool immutable = false;
        bool skip = hasParen;
        for (size_t t = lo; t < hi; ++t) {
            const std::string &text = file.tokens[t].text;
            if (text == "static")
                isStatic = true;
            if (kImmutableMarkers.count(text))
                immutable = true;
            if (kSkipWords.count(text))
                skip = true;
        }
        if (skip || immutable)
            return;
        if (inFunction && !isStatic)
            return; // plain locals are task-private
        // Declared name: last identifier before '=' / '{' / end.
        size_t bound = stmtEnd;
        for (size_t p = stmtStart; p < stmtEnd; ++p) {
            if (code[p] == '=' || code[p] == '{') {
                bound = p;
                break;
            }
        }
        const Token *nameTok = nullptr;
        for (size_t t = lo; t < hi; ++t) {
            if (file.tokens[t].offset >= bound)
                break;
            nameTok = &file.tokens[t];
        }
        // A single token ("return x" style fragments) or no name
        // means this is not a declaration.
        if (!nameTok || hi - lo < 2 || nameTok == &file.tokens[lo])
            return;
        if (file.sup.allows(kRuleC2, nameTok->line))
            return;
        findings.push_back(
            {file.path, nameTok->line, kRuleC2,
             std::string("mutable ") +
                 (inFunction ? "function-local static '"
                             : "namespace-scope state '") +
                 nameTok->text +
                 "' is reachable from thread-pool/ServiceDaemon "
                 "executor tasks — annotate the declaration with "
                 "'yasim-lint: guarded(<mutex>)' naming the lock that "
                 "protects it, make it const/atomic, or move it into "
                 "the task"});
    };

    size_t stmtStart = 0;
    bool hasParen = false;
    size_t i = 0;
    auto skipPreprocessor = [&](size_t at) {
        // '#' directives are not statements; consume the line
        // (honoring backslash continuations).
        size_t p = at;
        while (p < code.size()) {
            size_t eol = code.find('\n', p);
            if (eol == std::string::npos)
                return code.size();
            if (eol > p && code[eol - 1] == '\\') {
                p = eol + 1;
                continue;
            }
            return eol;
        }
        return code.size();
    };
    while (i < code.size()) {
        char c = code[i];
        if (c == '#') {
            // Only a line-leading '#' starts a directive; masked
            // strings can't contain one.
            size_t lineStart = code.rfind('\n', i);
            lineStart = lineStart == std::string::npos ? 0
                                                       : lineStart + 1;
            bool leading = true;
            for (size_t p = lineStart; p < i; ++p) {
                if (!std::isspace(static_cast<unsigned char>(code[p])))
                    leading = false;
            }
            if (leading) {
                i = skipPreprocessor(i);
                stmtStart = i;
                hasParen = false;
                continue;
            }
        } else if (c == '(') {
            hasParen = true;
            int d = 0;
            for (; i < code.size(); ++i) {
                if (code[i] == '(')
                    ++d;
                else if (code[i] == ')' && --d == 0)
                    break;
            }
        } else if (c == '{') {
            ScopeKind kind = classifyBrace(i);
            bool wasNamespace = atNamespaceScope();
            if (kind == ScopeKind::Function && wasNamespace) {
                // Entering a function body: scan it for static
                // locals, statement by statement.
                int d = 0;
                size_t j = i;
                for (; j < code.size(); ++j) {
                    if (code[j] == '{')
                        ++d;
                    else if (code[j] == '}' && --d == 0)
                        break;
                }
                size_t innerStart = i + 1;
                bool innerParen = false;
                for (size_t p = i + 1; p < j; ++p) {
                    char ic = code[p];
                    if (ic == '(') {
                        int pd = 0;
                        for (; p < j; ++p) {
                            if (code[p] == '(')
                                ++pd;
                            else if (code[p] == ')' && --pd == 0)
                                break;
                        }
                        innerParen = true;
                    } else if (ic == '{') {
                        int pd = 0;
                        for (; p < j; ++p) {
                            if (code[p] == '{')
                                ++pd;
                            else if (code[p] == '}' && --pd == 0)
                                break;
                        }
                        innerStart = p + 1;
                        innerParen = false;
                    } else if (ic == ';') {
                        examine(innerStart, p, innerParen, true);
                        innerStart = p + 1;
                        innerParen = false;
                    }
                }
                stmtStart = j + 1;
                i = j + 1;
                hasParen = false;
                continue;
            }
            scopes.push_back(kind);
            stmtStart = i + 1;
            hasParen = false;
        } else if (c == '}') {
            if (!scopes.empty())
                scopes.pop_back();
            stmtStart = i + 1;
            hasParen = false;
        } else if (c == ';') {
            if (atNamespaceScope())
                examine(stmtStart, i, hasParen, false);
            stmtStart = i + 1;
            hasParen = false;
        }
        ++i;
    }
}

void
ruleC2(const Project &project, std::vector<Finding> &findings)
{
    std::set<std::string> reachable = executorReachable(project);
    for (const std::string &path : reachable) {
        const FileModel *file = project.find(path);
        if (!file)
            continue;
        // Library and bench code only: tests run under gtest's own
        // serial driver.
        if (path.compare(0, 4, "src/") != 0 &&
            path.compare(0, 6, "bench/") != 0)
            continue;
        if (file->sup.fileRules.count(kRuleC2) ||
            file->sup.fileRules.count("*"))
            continue;
        scanSharedState(*file, findings);
    }
}

// --- H1: include hygiene ---------------------------------------------

/**
 * Identifiers a header offers to its includers: type names, function
 * names, enumerators, macros, usings, and extern/const objects. A
 * heuristic — used conservatively: an include is only flagged when
 * nothing it provides (directly or transitively, see ruleH1) is
 * referenced.
 */
std::set<std::string>
providedSymbols(const FileModel &hdr)
{
    std::set<std::string> provided;
    const std::string &code = hdr.masked.code;
    const std::vector<Token> &tokens = hdr.tokens;

    const std::set<std::string> kPrevKeywords = {
        "return", "if",  "while", "for",   "switch", "case",
        "goto",   "new", "delete", "throw", "do",    "else",
        "sizeof", "co_return", "co_yield", "and", "or", "not",
    };

    // #define NAME
    size_t pos = 0;
    while ((pos = hdr.text.find("#", pos)) != std::string::npos) {
        size_t lineStart = hdr.text.rfind('\n', pos);
        lineStart =
            lineStart == std::string::npos ? 0 : lineStart + 1;
        bool leading = true;
        for (size_t p = lineStart; p < pos; ++p) {
            if (!std::isspace(
                    static_cast<unsigned char>(hdr.text[p])))
                leading = false;
        }
        size_t p = pos + 1;
        while (p < hdr.text.size() &&
               std::isspace(static_cast<unsigned char>(hdr.text[p])))
            ++p;
        if (leading && hdr.text.compare(p, 6, "define") == 0) {
            p += 6;
            while (p < hdr.text.size() &&
                   std::isspace(
                       static_cast<unsigned char>(hdr.text[p])))
                ++p;
            size_t end = p;
            while (end < hdr.text.size() &&
                   isIdentChar(hdr.text[end]))
                ++end;
            if (end > p)
                provided.insert(hdr.text.substr(p, end - p));
        }
        ++pos;
    }

    for (size_t t = 0; t < tokens.size(); ++t) {
        const std::string &text = tokens[t].text;

        // struct/class/enum [class] Name
        if (text == "struct" || text == "class" || text == "union" ||
            text == "enum") {
            size_t n = t + 1;
            if (n < tokens.size() && (tokens[n].text == "class" ||
                                      tokens[n].text == "struct"))
                ++n;
            if (n < tokens.size()) {
                provided.insert(tokens[n].text);
                // Enumerators: identifiers at depth 1 of the enum
                // body.
                if (text == "enum") {
                    size_t p = tokens[n].offset;
                    while (p < code.size() && code[p] != '{' &&
                           code[p] != ';')
                        ++p;
                    if (p < code.size() && code[p] == '{') {
                        int depth = 0;
                        size_t end = p;
                        for (; end < code.size(); ++end) {
                            if (code[end] == '{')
                                ++depth;
                            else if (code[end] == '}' && --depth == 0)
                                break;
                        }
                        auto [lo, hi] = tokenRange(hdr, p, end);
                        for (size_t e = lo; e < hi; ++e)
                            provided.insert(hdr.tokens[e].text);
                    }
                }
            }
            continue;
        }

        // using Name = ...;   (not "using namespace")
        if (text == "using") {
            if (t + 1 < tokens.size() &&
                tokens[t + 1].text != "namespace") {
                size_t after = tokens[t + 1].offset +
                               tokens[t + 1].text.size();
                if (nextSignificant(code, after) == '=')
                    provided.insert(tokens[t + 1].text);
            }
            continue;
        }

        // constexpr/extern/inline/constinit object declarations.
        if (text == "constexpr" || text == "extern" ||
            text == "inline" || text == "constinit") {
            for (size_t n = t + 1; n < tokens.size(); ++n) {
                size_t off = tokens[n].offset;
                bool crossed = false;
                for (size_t p = tokens[t].offset; p < off; ++p) {
                    if (code[p] == ';' || code[p] == '(' ||
                        code[p] == '{')
                        crossed = true;
                }
                if (crossed)
                    break;
                size_t after = off + tokens[n].text.size();
                char next = nextSignificant(code, after);
                if (next == '=' || next == ';' || next == '[' ||
                    next == '{')
                    provided.insert(tokens[n].text);
            }
            continue;
        }

        // Function declarations: identifier followed by '(' whose
        // preceding token reads like a type.
        size_t after = tokens[t].offset + text.size();
        if (nextSignificant(code, after) != '(')
            continue;
        if (kNotFunctionNames.count(text) ||
            kPrevKeywords.count(text))
            continue;
        if (isMemberAccess(code, tokens[t].offset) ||
            qualifiedByOtherScope(code, tokens[t].offset))
            continue;
        size_t prev = prevSignificantPos(code, tokens[t].offset);
        if (prev == std::string::npos)
            continue;
        char pc = code[prev];
        if (!(isIdentChar(pc) || pc == '>' || pc == '&' || pc == '*'))
            continue;
        if (t > 0 && kPrevKeywords.count(tokens[t - 1].text))
            continue;
        provided.insert(text);
    }
    provided.erase("");
    return provided;
}

void
ruleH1(const Project &project, bool fix, int &fixedIncludes,
       std::vector<Finding> &findings)
{
    // Per-header provided sets, then transitive closures.
    std::map<std::string, std::set<std::string>> provided;
    for (const FileModel &file : project.files)
        provided[file.path] = providedSymbols(file);

    std::map<std::string, std::set<std::string>> closure;
    std::function<const std::set<std::string> &(const std::string &,
                                                std::set<std::string> &)>
        closureOf = [&](const std::string &path,
                        std::set<std::string> &visiting)
        -> const std::set<std::string> & {
        auto it = closure.find(path);
        if (it != closure.end())
            return it->second;
        std::set<std::string> result = provided[path];
        if (visiting.insert(path).second) {
            const FileModel *file = project.find(path);
            if (file) {
                for (const IncludeEdge &edge : file->includes) {
                    if (edge.resolved.empty())
                        continue;
                    const std::set<std::string> &sub =
                        closureOf(edge.resolved, visiting);
                    result.insert(sub.begin(), sub.end());
                }
            }
            visiting.erase(path);
        }
        return closure.emplace(path, std::move(result)).first->second;
    };

    std::map<std::string, std::vector<int>> toRemove;
    auto isImplFile = [](const std::string &path) {
        return (path.size() > 3 &&
                path.compare(path.size() - 3, 3, ".cc") == 0) ||
               (path.size() > 4 &&
                path.compare(path.size() - 4, 4, ".cpp") == 0);
    };
    for (const FileModel &file : project.files) {
        // Implementation files only: a header's includes are part of
        // its exported interface and removing them can break every
        // includer.
        if (!isImplFile(file.path))
            continue;
        std::set<std::string> used;
        for (const Token &tok : file.tokens)
            used.insert(tok.text);

        for (const IncludeEdge &edge : file.includes) {
            if (edge.resolved.empty())
                continue;
            if (stemOf(edge.resolved) == stemOf(file.path))
                continue; // never the TU's own header
            if (file.sup.allows(kRuleH1, edge.line))
                continue;
            const std::set<std::string> &direct =
                provided[edge.resolved];
            if (direct.empty() || direct.count("operator"))
                continue; // can't reason about it — keep
            bool directUse = false;
            for (const std::string &sym : direct) {
                if (used.count(sym)) {
                    directUse = true;
                    break;
                }
            }
            if (directUse)
                continue;
            // Transitive safety: everything this include's closure
            // supplies that the file actually uses must also arrive
            // through the other includes.
            std::set<std::string> visiting;
            const std::set<std::string> &whole =
                closureOf(edge.resolved, visiting);
            std::set<std::string> others;
            for (const IncludeEdge &other : file.includes) {
                if (other.resolved.empty() ||
                    other.resolved == edge.resolved)
                    continue;
                const std::set<std::string> &sub =
                    closureOf(other.resolved, visiting);
                others.insert(sub.begin(), sub.end());
            }
            bool transitivelyNeeded = false;
            for (const std::string &sym : whole) {
                if (used.count(sym) && !others.count(sym)) {
                    transitivelyNeeded = true;
                    break;
                }
            }
            if (transitivelyNeeded)
                continue;
            findings.push_back(
                {file.path, edge.line, kRuleH1,
                 "unused include \"" + edge.spelled +
                     "\" — nothing it declares is referenced here "
                     "(remove it, run yasim-analyze --fix, or "
                     "annotate '// yasim-lint: keep' if it is "
                     "load-bearing)"});
            if (fix)
                toRemove[file.path].push_back(edge.line);
        }
    }

    for (const auto &[path, lines] : toRemove) {
        const FileModel *file = project.find(path);
        if (!file)
            continue;
        std::set<int> drop(lines.begin(), lines.end());
        std::istringstream in(file->text);
        std::ostringstream out;
        std::string line;
        int lineNo = 0;
        while (std::getline(in, line)) {
            ++lineNo;
            if (!drop.count(lineNo))
                out << line << "\n";
        }
        std::ofstream rewrite(file->absPath.empty() ? path
                                                    : file->absPath,
                              std::ios::binary);
        if (rewrite && (rewrite << out.str()))
            fixedIncludes += static_cast<int>(drop.size());
    }
}

// --- baseline --------------------------------------------------------

struct BaselineEntry
{
    std::string pathSuffix;
    std::string rule;
};

bool
parseBaseline(const std::string &text, std::vector<BaselineEntry> &out,
              std::string &error)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;
        size_t first = t.find(':');
        size_t second =
            first == std::string::npos ? std::string::npos
                                       : t.find(':', first + 1);
        if (first == std::string::npos ||
            second == std::string::npos ||
            trimmed(t.substr(second + 1)).empty()) {
            error = "line " + std::to_string(lineNo) +
                    ": expected '<path>:<RULE>: <justification>' "
                    "(the justification is mandatory)";
            return false;
        }
        out.push_back({t.substr(0, first),
                       trimmed(t.substr(first + 1,
                                        second - first - 1))});
    }
    return true;
}

} // namespace

std::vector<RuleInfo>
analyzeRuleCatalog()
{
    std::vector<RuleInfo> catalog = ruleCatalog();
    catalog.push_back({"G1", "layering by include-graph reachability: "
                             "techniques/core stop at openStream's "
                             "header, bench stops at the service API"});
    catalog.push_back({"K1", "cache-key completeness: every config "
                             "field is stamped into its annotated "
                             "cache key or justified key-exempt"});
    catalog.push_back({"V1", "serialization drift: layout fingerprints "
                             "must match serialization.lock or the "
                             "format version must be bumped"});
    catalog.push_back({"C2", "shared mutable state reachable from "
                             "executor tasks must name its lock via "
                             "guarded(<mutex>)"});
    catalog.push_back({"H1", "include hygiene: unused direct includes "
                             "(fixable with --fix)"});
    return catalog;
}

AnalyzeResult
analyzeRepo(const std::string &root, const AnalyzeOptions &options)
{
    AnalyzeResult result;

    // --- enumerate ----------------------------------------------------
    const std::set<std::string> extensions = {".cc", ".hh", ".cpp",
                                              ".h"};
    std::vector<std::string> paths;   // root-relative
    std::vector<std::string> missing; // roots that don't exist
    for (const std::string &sub : options.roots) {
        fs::path base = fs::path(root) / sub;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            paths.push_back(normalizePath(sub));
            continue;
        }
        if (!fs::is_directory(base, ec)) {
            missing.push_back(normalizePath(sub));
            continue;
        }
        for (fs::recursive_directory_iterator
                 it(base, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (it->is_directory() &&
                (it->path().filename() == "lint_fixtures" ||
                 it->path().filename() == "build")) {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            if (!extensions.count(it->path().extension().string()))
                continue;
            std::string rel = normalizePath(
                fs::relative(it->path(), root, ec).string());
            if (!ec)
                paths.push_back(rel);
        }
    }
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

    // --- parse (parallel) ---------------------------------------------
    auto parseOne = [&](size_t i) {
        FileModel model;
        model.path = paths[i];
        model.absPath =
            (fs::path(root) / fs::path(paths[i])).string();
        std::ifstream in(model.absPath, std::ios::binary);
        if (!in) {
            model.readable = false;
            return model;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        model.text = buffer.str();
        model.masked = maskSource(model.text);
        model.tokens = tokenize(model.masked.code);
        model.sup = parseSuppressions(model.masked);
        model.includes = scanIncludes(model.text);
        model.tokenFindings =
            lintSource(model.path, model.text, options.lint);
        return model;
    };

    Project project;
    if (options.parallel) {
        project.files =
            parallelMap<FileModel>(paths.size(), parseOne);
    } else {
        project.files.reserve(paths.size());
        for (size_t i = 0; i < paths.size(); ++i)
            project.files.push_back(parseOne(i));
    }
    for (size_t i = 0; i < project.files.size(); ++i)
        project.byPath[project.files[i].path] = i;
    resolveIncludes(project);
    result.filesScanned = project.files.size();

    // --- active-rule selection ----------------------------------------
    std::set<std::string> active;
    if (options.lint.rules.empty()) {
        for (const RuleInfo &info : analyzeRuleCatalog())
            active.insert(info.id);
    } else {
        active.insert(options.lint.rules.begin(),
                      options.lint.rules.end());
    }

    std::vector<Finding> findings;
    for (const std::string &path : missing) {
        findings.push_back(
            {path, 0, kRuleIo, "no such file or directory"});
    }
    for (const FileModel &file : project.files) {
        if (!file.readable) {
            findings.push_back(
                {file.path, 0, kRuleIo, "cannot read file"});
            continue;
        }
        findings.insert(findings.end(), file.tokenFindings.begin(),
                        file.tokenFindings.end());
    }

    Annotations ann = collectAnnotations(project, findings);

    if (active.count(kRuleG1))
        ruleG1(project, findings);
    if (active.count(kRuleK1))
        ruleK1(project, ann, findings);
    if (active.count(kRuleV1) || options.updateLock) {
        std::string lockPath = options.lockPath;
        if (lockPath.empty())
            lockPath = (fs::path(root) / "tools" / "yasim-lint" /
                        "serialization.lock")
                           .string();
        ruleV1(ann, lockPath, options.updateLock, findings);
    }
    if (active.count(kRuleC2))
        ruleC2(project, findings);
    if (active.count(kRuleH1))
        ruleH1(project, options.fix, result.fixedIncludes, findings);

    // --- baseline ------------------------------------------------------
    std::string baselinePath = options.baselinePath;
    if (baselinePath.empty())
        baselinePath = (fs::path(root) / "tools" / "yasim-lint" /
                        "baseline.txt")
                           .string();
    std::ifstream baseIn(baselinePath, std::ios::binary);
    if (baseIn) {
        std::ostringstream buffer;
        buffer << baseIn.rdbuf();
        std::vector<BaselineEntry> baseline;
        std::string error;
        if (!parseBaseline(buffer.str(), baseline, error)) {
            findings.push_back({baselinePath, 0, kRuleIo,
                                "corrupt baseline: " + error});
        } else {
            findings.erase(
                std::remove_if(
                    findings.begin(), findings.end(),
                    [&](const Finding &f) {
                        for (const BaselineEntry &entry : baseline) {
                            if (f.rule == entry.rule &&
                                pathEndsWith(f.file,
                                             entry.pathSuffix))
                                return true;
                        }
                        return false;
                    }),
                findings.end());
        }
    }

    // --- --since filter ------------------------------------------------
    if (!options.sinceFiles.empty()) {
        std::set<std::string> changed;
        for (const std::string &file : options.sinceFiles)
            changed.insert(normalizePath(file));
        findings.erase(
            std::remove_if(findings.begin(), findings.end(),
                           [&](const Finding &f) {
                               if (f.rule == kRuleV1 ||
                                   f.rule == kRuleIo)
                                   return false;
                               return !changed.count(f.file);
                           }),
            findings.end());
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding &a, const Finding &b) {
                                   return a.file == b.file &&
                                          a.line == b.line &&
                                          a.rule == b.rule &&
                                          a.message == b.message;
                               }),
                   findings.end());
    result.findings = std::move(findings);
    return result;
}

std::string
sarifReport(const std::vector<Finding> &findings)
{
    auto escape = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        return out;
    };

    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n    {\n"
        << "      \"tool\": {\n        \"driver\": {\n"
        << "          \"name\": \"yasim-analyze\",\n"
        << "          \"informationUri\": "
           "\"docs/static-analysis.md\",\n"
        << "          \"rules\": [\n";
    std::vector<RuleInfo> catalog = analyzeRuleCatalog();
    for (size_t i = 0; i < catalog.size(); ++i) {
        out << "            {\"id\": \"" << catalog[i].id
            << "\", \"shortDescription\": {\"text\": \""
            << escape(catalog[i].summary) << "\"}}"
            << (i + 1 < catalog.size() ? "," : "") << "\n";
    }
    out << "          ]\n        }\n      },\n"
        << "      \"results\": [\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "        {\"ruleId\": \"" << escape(f.rule)
            << "\", \"level\": \"error\""
            << ", \"message\": {\"text\": \"" << escape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << escape(f.file) << "\"}, \"region\": {\"startLine\": "
            << std::max(1, f.line) << "}}}]}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }\n  ]\n}\n";
    return out.str();
}

} // namespace yasim::lint
