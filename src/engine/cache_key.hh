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
 * names the on-disk cache file (ArtifactDir::path), and the file
 * stores the full text so a load verifies it before trusting the
 * payload.
 *
 * The configuration's display name is deliberately excluded: two
 * differently-labelled but field-identical configurations share one
 * cache entry.
 */

#ifndef YASIM_ENGINE_CACHE_KEY_HH
#define YASIM_ENGINE_CACHE_KEY_HH

#include <string>

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

/** Canonical text for suite scaling. */
std::string suiteKeyText(const SuiteConfig &suite);

/** Canonical text for every result-affecting SimConfig field. */
std::string configKeyText(const SimConfig &config);

/**
 * Full canonical key for one (technique, context, config) result:
 * "v<version>|bench=...|<suite>|cost=...|tech=...|cfg=...". A sharded
 * context adds "|shards{...}" before "tech=" to the full reference's
 * key only, the one technique whose result sharding changes.
 */
std::string resultCacheKey(const Technique &technique,
                           const TechniqueContext &ctx,
                           const SimConfig &config);

} // namespace yasim

#endif // YASIM_ENGINE_CACHE_KEY_HH
