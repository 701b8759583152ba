/**
 * @file
 * Bit-exact (de)serialization of TechniqueResult for the disk cache.
 *
 * The format is line-oriented text: a version header, the full cache
 * key (verified on load — a digest collision or a renamed file can
 * never resurrect the wrong result), then one field per line. Doubles
 * are stored as 16-hex-digit IEEE-754 bit patterns so a round-tripped
 * result is bit-identical to the freshly simulated one — the derived
 * tables print byte-identically from either. Loads are strict: any
 * malformed or truncated file — or one with trailing bytes after a
 * well-formed payload — reads as a cache miss.
 *
 * The same file also defines the repo's one machine-readable report
 * format: JsonReport, a flat versioned JSON object every emitter
 * (--engine-stats-json, microbench --json / --json-ooo, yasimd,
 * bench_service) writes and every consumer (yasim-client, the CI perf
 * gates) parses. Historical field names are preserved as-is so gates
 * written against the pre-schema output keep working for one release.
 */

#ifndef YASIM_ENGINE_RESULT_IO_HH
#define YASIM_ENGINE_RESULT_IO_HH

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "techniques/technique.hh"

namespace yasim {

/**
 * A cursor over a line-oriented payload: a result file, or a service
 * request or response (service/protocol.hh). Each step consumes exactly
 * the bytes the writer writes for one token and fails on anything
 * else: no whitespace is skipped, and a number has no sign and no
 * leading zero.
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

    /** Consume the next @p n bytes, whatever they are. */
    bool
    bytes(uint64_t n, std::string_view &value)
    {
        if (n > rest.size())
            return false;
        value = rest.substr(0, size_t(n));
        rest.remove_prefix(size_t(n));
        return true;
    }

    /** Consume a double's 16 hex digits. */
    bool hexDouble(double &value);

    /** Consume "<tag> <n>" and n " <hex>" doubles, then the newline. */
    bool doubles(std::string_view tag, std::vector<double> &values);

    /** True once every byte is consumed. */
    bool done() const { return rest.empty(); }

  private:
    std::string_view rest;
};

/** JsonReport schema version ("schema_version" in every report). */
constexpr int kReportSchemaVersion = 1;

/**
 * A flat, ordered JSON object under the versioned "yasim-report"
 * schema. Fields render in insertion order, so reports are
 * byte-deterministic; setting an existing name overwrites its value in
 * place (how old field names stay aliased to new ones). Rendered form:
 *
 *     {
 *       "schema": "yasim-report",
 *       "schema_version": 1,
 *       "kind": "engine-stats",
 *       "results_memoized": 42,
 *       ...
 *     }
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string kind) : reportKind(std::move(kind)) {}

    /** What the report describes, e.g. "engine-stats", "perf-gate". */
    const std::string &kind() const { return reportKind; }

    void setCount(std::string_view name, uint64_t value);
    void setNumber(std::string_view name, double value);
    void setBool(std::string_view name, bool value);
    void setText(std::string_view name, std::string_view value);

    /** True when the report carries @p name. */
    bool has(std::string_view name) const;
    /** Typed lookups; @p fallback when absent or differently typed. */
    uint64_t count(std::string_view name, uint64_t fallback = 0) const;
    double number(std::string_view name, double fallback = 0.0) const;
    bool boolean(std::string_view name, bool fallback = false) const;
    std::string text(std::string_view name,
                     std::string_view fallback = "") const;

    /** Render the complete JSON document (trailing newline included). */
    std::string render() const;

  private:
    friend bool parseReport(const std::string &text, JsonReport &report);

    enum class FieldType { Count, Number, Boolean, Text };

    struct Field
    {
        std::string name;
        FieldType type = FieldType::Count;
        uint64_t countValue = 0;
        double numberValue = 0.0;
        bool boolValue = false;
        std::string textValue;
    };

    Field &field(std::string_view name);
    const Field *find(std::string_view name) const;

    std::string reportKind;
    std::vector<Field> fields;
};

/**
 * Parse a rendered report. Strict about the envelope — the schema tag
 * and a supported schema_version are required — and tolerant about the
 * payload (unknown fields load fine, so old readers accept new
 * reports). Returns false on malformed JSON or a wrong envelope.
 */
bool parseReport(const std::string &text, JsonReport &report);

/** Render @p report to @p path ("-" or "" = stdout). Fatal on I/O error. */
void writeReportFile(const JsonReport &report, const std::string &path);

/** Serialize @p result (cached under @p key_text) to @p os. */
void writeResult(std::ostream &os, const std::string &key_text,
                 const TechniqueResult &result);

/**
 * Parse @p payload, a result previously written with writeResult under
 * @p key_text. Accepts exactly the bytes writeResult writes; returns
 * false — leaving @p result unspecified — on a version, key, or format
 * mismatch, including any byte more or less.
 */
bool readResult(std::string_view payload, const std::string &key_text,
                TechniqueResult &result);

} // namespace yasim

#endif // YASIM_ENGINE_RESULT_IO_HH
