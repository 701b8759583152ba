#include "engine/result_io.hh"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>

#include "engine/cache_key.hh"
#include "support/check.hh"
#include "support/logging.hh"

namespace yasim {

namespace {

std::string
encodeDouble(double v)
{
    static const char digits[] = "0123456789abcdef";
    uint64_t bits = std::bit_cast<uint64_t>(v);
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i)
        out[i] = digits[(bits >> (60 - 4 * i)) & 0xf];
    return out;
}

bool
decodeDouble(std::string_view hex, double &v)
{
    if (hex.size() != 16)
        return false;
    uint64_t bits = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        bits = (bits << 4) | uint64_t(digit);
    }
    v = std::bit_cast<double>(bits);
    return true;
}

/** The SimStats fields in serialization order. */
template <typename Stats, typename Fn>
void
forEachStatField(Stats &stats, Fn &&fn)
{
    fn(stats.instructions);
    fn(stats.cycles);
    fn(stats.condBranches);
    fn(stats.condMispredicts);
    fn(stats.l1iAccesses);
    fn(stats.l1iMisses);
    fn(stats.l1dAccesses);
    fn(stats.l1dMisses);
    fn(stats.l2Accesses);
    fn(stats.l2Misses);
    fn(stats.trivialOps);
    fn(stats.prefetchesIssued);
    fn(stats.memStallCycles);
}

void
writeDoubles(std::ostream &os, const char *tag,
             const std::vector<double> &values)
{
    os << tag << ' ' << values.size();
    for (double v : values)
        os << ' ' << encodeDouble(v);
    os << '\n';
}

/**
 * A cursor over a result payload. Each step consumes exactly the bytes
 * writeResult writes for one token and fails on anything else: no
 * whitespace is skipped, and a number has no sign and no leading zero.
 */
class PayloadCursor
{
  public:
    explicit PayloadCursor(std::string_view payload) : rest(payload) {}

    /** Consume @p text. */
    bool
    literal(std::string_view text)
    {
        if (!rest.starts_with(text))
            return false;
        rest.remove_prefix(text.size());
        return true;
    }

    /** Consume the rest of the line and its newline. */
    bool
    line(std::string_view &value)
    {
        const size_t newline = rest.find('\n');
        if (newline == std::string_view::npos)
            return false;
        value = rest.substr(0, newline);
        rest.remove_prefix(newline + 1);
        return true;
    }

    bool
    line(std::string &value)
    {
        std::string_view text;
        if (!line(text))
            return false;
        value.assign(text);
        return true;
    }

    /** Consume a decimal number. */
    template <typename T>
    bool
    number(T &value)
    {
        if (rest.size() > 1 && rest[0] == '0' && rest[1] >= '0' &&
            rest[1] <= '9')
            return false;
        const auto [end, ec] =
            std::from_chars(rest.data(), rest.data() + rest.size(), value);
        if (ec != std::errc())
            return false;
        rest.remove_prefix(size_t(end - rest.data()));
        return true;
    }

    /** Consume a double's 16 hex digits. */
    bool
    hexDouble(double &value)
    {
        if (rest.size() < 16 || !decodeDouble(rest.substr(0, 16), value))
            return false;
        rest.remove_prefix(16);
        return true;
    }

    /** Consume "<tag> <n>" and n " <hex>" doubles, then the newline. */
    bool
    doubles(std::string_view tag, std::vector<double> &values)
    {
        size_t n = 0;
        // Each value takes 17 bytes: a bad count must not allocate.
        if (!literal(tag) || !literal(" ") || !number(n) ||
            n > rest.size() / 17)
            return false;
        values.resize(n);
        for (double &v : values)
            if (!literal(" ") || !hexDouble(v))
                return false;
        return literal("\n");
    }

    /** True once every byte is consumed. */
    bool done() const { return rest.empty(); }

  private:
    std::string_view rest;
};

} // namespace

// yasim-lint: serialized(result)
void
writeResult(std::ostream &os, const std::string &key_text,
            const TechniqueResult &result)
{
    // An empty key would alias every lookup onto one cache file; keys
    // are non-empty by construction (see cache_key.cc).
    YASIM_CHECK(!key_text.empty(), "result cache key is empty");
    // The line-oriented format cannot survive a newline inside the key.
    YASIM_CHECK(key_text.find('\n') == std::string::npos,
                "result cache key contains a newline");
    os << "yasim-result " << kCacheFormatVersion << '\n';
    os << "key " << key_text << '\n';
    os << "technique " << result.technique << '\n';
    os << "permutation " << result.permutation << '\n';
    os << "cpi " << encodeDouble(result.cpi) << '\n';
    writeDoubles(os, "metrics", result.metrics);
    os << "stats";
    forEachStatField(result.detailed,
                     [&](const uint64_t &v) { os << ' ' << v; });
    os << '\n';
    writeDoubles(os, "bbef", result.bbef);
    writeDoubles(os, "bbv", result.bbv);
    os << "workUnits " << encodeDouble(result.workUnits) << '\n';
    os << "detailedInsts " << result.detailedInsts << '\n';
    os << "end\n";
}

// yasim-lint: serialized(result)
bool
readResult(std::string_view payload, const std::string &key_text,
           TechniqueResult &result)
{
    PayloadCursor in(payload);
    int version = 0;
    std::string_view key;
    if (!in.literal("yasim-result ") || !in.number(version) ||
        version != kCacheFormatVersion || !in.literal("\nkey ") ||
        !in.line(key) || key != key_text)
        return false;
    if (!in.literal("technique ") || !in.line(result.technique) ||
        !in.literal("permutation ") || !in.line(result.permutation))
        return false;
    if (!in.literal("cpi ") || !in.hexDouble(result.cpi) ||
        !in.literal("\n") || !in.doubles("metrics", result.metrics))
        return false;
    if (!in.literal("stats"))
        return false;
    bool stats_ok = true;
    forEachStatField(result.detailed, [&](uint64_t &v) {
        stats_ok = stats_ok && in.literal(" ") && in.number(v);
    });
    if (!stats_ok || !in.literal("\n") ||
        !in.doubles("bbef", result.bbef) || !in.doubles("bbv", result.bbv))
        return false;
    if (!in.literal("workUnits ") || !in.hexDouble(result.workUnits) ||
        !in.literal("\ndetailedInsts ") ||
        !in.number(result.detailedInsts) || !in.literal("\n"))
        return false;
    // A well-formed payload followed by extra bytes is not a cache
    // entry we wrote: it is corruption (an interrupted overwrite, a
    // concatenated file) and must read as a miss.
    return in.literal("end\n") && in.done();
}

namespace {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
renderNumber(double v)
{
    // Reports must stay valid JSON: NaN/Inf have no JSON spelling, and
    // no gate metric is legitimately non-finite.
    YASIM_CHECK(v == v && v <= 1e308 && v >= -1e308,
                "non-finite value in a JSON report");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Hand-rolled cursor over a flat JSON report document. */
struct JsonCursor
{
    const char *at;
    const char *end;

    void
    skipSpace()
    {
        while (at != end &&
               std::isspace(static_cast<unsigned char>(*at)))
            ++at;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (at == end || *at != c)
            return false;
        ++at;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        out.clear();
        if (!consume('"'))
            return false;
        while (at != end && *at != '"') {
            char c = *at++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at == end)
                return false;
            char esc = *at++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (end - at < 4)
                      return false;
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = *at++;
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= unsigned(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= unsigned(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= unsigned(h - 'A' + 10);
                      else
                          return false;
                  }
                  // We only ever emit \u00xx control escapes; decode
                  // the Latin-1 range and reject the rest rather than
                  // mis-handle surrogate pairs.
                  if (code > 0xff)
                      return false;
                  out += char(code);
                  break;
              }
              default:
                return false;
            }
        }
        return consume('"');
    }

    /** One number/true/false token as raw text. */
    bool
    parseScalarToken(std::string &out)
    {
        skipSpace();
        out.clear();
        while (at != end && (std::isalnum(static_cast<unsigned char>(*at)) ||
                             *at == '-' || *at == '+' || *at == '.'))
            out += *at++;
        return !out.empty();
    }
};

} // namespace

JsonReport::Field &
JsonReport::field(std::string_view name)
{
    for (Field &f : fields)
        if (f.name == name)
            return f;
    Field f;
    f.name = std::string(name);
    fields.push_back(std::move(f));
    return fields.back();
}

const JsonReport::Field *
JsonReport::find(std::string_view name) const
{
    for (const Field &f : fields)
        if (f.name == name)
            return &f;
    return nullptr;
}

void
JsonReport::setCount(std::string_view name, uint64_t value)
{
    Field &f = field(name);
    f.type = FieldType::Count;
    f.countValue = value;
}

void
JsonReport::setNumber(std::string_view name, double value)
{
    Field &f = field(name);
    f.type = FieldType::Number;
    f.numberValue = value;
}

void
JsonReport::setBool(std::string_view name, bool value)
{
    Field &f = field(name);
    f.type = FieldType::Boolean;
    f.boolValue = value;
}

void
JsonReport::setText(std::string_view name, std::string_view value)
{
    Field &f = field(name);
    f.type = FieldType::Text;
    f.textValue = std::string(value);
}

bool
JsonReport::has(std::string_view name) const
{
    return find(name) != nullptr;
}

uint64_t
JsonReport::count(std::string_view name, uint64_t fallback) const
{
    const Field *f = find(name);
    if (!f)
        return fallback;
    if (f->type == FieldType::Count)
        return f->countValue;
    if (f->type == FieldType::Number && f->numberValue >= 0)
        return uint64_t(f->numberValue);
    return fallback;
}

double
JsonReport::number(std::string_view name, double fallback) const
{
    const Field *f = find(name);
    if (!f)
        return fallback;
    if (f->type == FieldType::Number)
        return f->numberValue;
    if (f->type == FieldType::Count)
        return double(f->countValue);
    return fallback;
}

bool
JsonReport::boolean(std::string_view name, bool fallback) const
{
    const Field *f = find(name);
    return f && f->type == FieldType::Boolean ? f->boolValue : fallback;
}

std::string
JsonReport::text(std::string_view name, std::string_view fallback) const
{
    const Field *f = find(name);
    return f && f->type == FieldType::Text ? f->textValue
                                           : std::string(fallback);
}

std::string
JsonReport::render() const
{
    std::string out = "{\n";
    out += "  \"schema\": \"yasim-report\",\n";
    out += "  \"schema_version\": " +
           std::to_string(kReportSchemaVersion) + ",\n";
    out += "  \"kind\": \"" + jsonEscape(reportKind) + "\"";
    for (const Field &f : fields) {
        out += ",\n  \"" + jsonEscape(f.name) + "\": ";
        switch (f.type) {
          case FieldType::Count:
            out += std::to_string(f.countValue);
            break;
          case FieldType::Number:
            out += renderNumber(f.numberValue);
            break;
          case FieldType::Boolean:
            out += f.boolValue ? "true" : "false";
            break;
          case FieldType::Text:
            out += '"' + jsonEscape(f.textValue) + '"';
            break;
        }
    }
    out += "\n}\n";
    return out;
}

bool
parseReport(const std::string &text, JsonReport &report)
{
    JsonCursor cur{text.data(), text.data() + text.size()};
    if (!cur.consume('{'))
        return false;

    bool saw_schema = false;
    bool saw_version = false;
    report.reportKind.clear();
    report.fields.clear();

    bool first = true;
    while (true) {
        cur.skipSpace();
        if (cur.consume('}'))
            break;
        if (!first && !cur.consume(','))
            return false;
        first = false;

        std::string name;
        if (!cur.parseString(name) || !cur.consume(':'))
            return false;

        cur.skipSpace();
        if (cur.at != cur.end && *cur.at == '"') {
            std::string value;
            if (!cur.parseString(value))
                return false;
            if (name == "schema") {
                if (value != "yasim-report")
                    return false;
                saw_schema = true;
            } else if (name == "kind") {
                report.reportKind = value;
            } else {
                report.setText(name, value);
            }
            continue;
        }

        std::string token;
        if (!cur.parseScalarToken(token))
            return false;
        if (token == "true" || token == "false") {
            report.setBool(name, token == "true");
        } else if (token.find_first_not_of("0123456789") ==
                   std::string::npos) {
            uint64_t value = std::strtoull(token.c_str(), nullptr, 10);
            if (name == "schema_version") {
                if (int(value) != kReportSchemaVersion)
                    return false;
                saw_version = true;
            } else {
                report.setCount(name, value);
            }
        } else {
            char *parse_end = nullptr;
            double value = std::strtod(token.c_str(), &parse_end);
            if (parse_end != token.c_str() + token.size())
                return false;
            report.setNumber(name, value);
        }
    }
    cur.skipSpace();
    return saw_schema && saw_version && cur.at == cur.end &&
           !report.reportKind.empty();
}

void
writeReportFile(const JsonReport &report, const std::string &path)
{
    std::string rendered = report.render();
    if (path.empty() || path == "-") {
        std::cout << rendered;
        return;
    }
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << rendered;
    os.flush();
    if (!os)
        fatal("cannot write report to '%s'", path.c_str());
}

} // namespace yasim
