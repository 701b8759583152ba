/**
 * @file
 * Canonical cache-key construction for the ExperimentEngine.
 *
 * A key is a human-readable canonical text that spells out everything a
 * simulation result depends on: the cache-format version, the benchmark
 * and suite scaling, the technique's cacheKey() (every technique
 * parameter), the cost model, and every field of the machine
 * configuration. The text is the identity used by the in-memory memo
 * table (collision-free by construction); its 128-bit content digest
 * names the on-disk cache file, and the file stores the full text so a
 * load verifies it before trusting the payload.
 *
 * The configuration's display name is deliberately excluded: two
 * differently-labelled but field-identical configurations share one
 * cache entry.
 */

#ifndef YASIM_ENGINE_CACHE_KEY_HH
#define YASIM_ENGINE_CACHE_KEY_HH

#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hh"
#include "techniques/technique.hh"

namespace yasim {

/**
 * Bumped whenever the key layout, the result serialization, or the
 * meaning of any simulated statistic changes; old disk caches then
 * miss instead of resurrecting stale results. Version 2: live-mode
 * sharded references no longer charge a checkpoint-generation pass,
 * so their work units now equal the replay-mode values.
 */
// yasim-lint: version(result)
constexpr int kCacheFormatVersion = 2;

/**
 * Validating segment-by-segment cache-key builder.
 *
 * A key is composed from a fixed, ordered segment layout. stamp()ing a
 * segment the layout does not know, stamping one twice, stamping out
 * of canonical order, or finish()ing with a required segment missing
 * is a YASIM_CHECK failure with the offending segment named — a key
 * that would silently alias (or split) cache entries can no longer be
 * composed. The rendered text is byte-for-byte the historical format:
 * segments join with '|' and each carries its layout prefix, so e.g.
 * the optional sharding segment still renders as "|shards{...}" and
 * pre-existing disk caches keep hitting.
 */
class CacheKeyStamper
{
  public:
    /** One layout slot. */
    struct Segment
    {
        /** stamp() lookup name, e.g. "bench". */
        const char *name;
        /** Rendered prefix, e.g. "bench=" ("" for bare segments). */
        const char *prefix;
        /** May be absent from a finished key (e.g. "shards"). */
        bool optional = false;
    };

    /** Begin a key reading "<head>"; segments append "|...". */
    CacheKeyStamper(std::string head, std::vector<Segment> layout);

    /** Append segment @p name with @p value (fatal on misuse). */
    CacheKeyStamper &stamp(std::string_view name, std::string_view value);

    /** The finished key (fatal when a required segment is missing). */
    std::string finish();

  private:
    std::string text;
    std::vector<Segment> layout;
    /** Layout slots already stamped (duplicate diagnosis). */
    std::vector<bool> slotStamped;
    /** First layout slot the next stamp() may fill. */
    size_t nextSlot = 0;
};

/** Stamper with the result-key layout (bench/suite/cost/shards/tech/cfg). */
CacheKeyStamper resultKeyStamper();

/** Canonical text for suite scaling. */
std::string suiteKeyText(const SuiteConfig &suite);

/** Canonical text for every result-affecting SimConfig field. */
std::string configKeyText(const SimConfig &config);

/** Full canonical key for one (technique, context, config) result. */
std::string resultCacheKey(const Technique &technique,
                           const TechniqueContext &ctx,
                           const SimConfig &config);

/** 32-hex-char content digest of a key text (disk file stem). */
std::string cacheDigest(const std::string &key_text);

} // namespace yasim

#endif // YASIM_ENGINE_CACHE_KEY_HH
