/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * The model tracks tags only (no data — the functional simulator owns the
 * values); it exists to classify each access as a hit or a miss so the
 * timing model can charge the right latency, and to expose the hit rates
 * the architecture-level characterization vectorizes.
 */

#ifndef YASIM_UARCH_CACHE_HH
#define YASIM_UARCH_CACHE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace yasim {

/** Replacement policies. */
enum class ReplacementPolicy
{
    /** True least-recently-used. */
    Lru,
    /** First-in first-out (insertion order, hits don't refresh). */
    Fifo,
    /** Pseudo-random victim (deterministic xorshift). */
    Random,
};

/** Printable replacement-policy name. */
const char *replacementPolicyName(ReplacementPolicy policy);

/** Geometry of one cache level. */
struct CacheConfig
{
    /** Total capacity in KB. */
    uint32_t sizeKb = 32;
    /** Ways per set. */
    uint32_t assoc = 2;
    /** Line size in bytes (power of two). */
    uint32_t blockBytes = 64;
    /** Victim-selection policy. */
    ReplacementPolicy replacement = ReplacementPolicy::Lru;
};

/** Hit/miss counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;

    double hitRate() const
    {
        if (accesses == 0)
            return 1.0;
        return 1.0 - static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** A single tag-only cache level. */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config);

    /**
     * Look up @p addr; allocate the line on a miss (write-allocate).
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /**
     * Look up without counting statistics (used for prefetches and for
     * probing). Still allocates on miss.
     * @return true on hit.
     */
    bool touch(uint64_t addr);

    /** True when the line holding @p addr is resident; no side effects. */
    bool probe(uint64_t addr) const;

    /** Invalidate every line (cold start). Stats keep counting. */
    void reset();

    /** Address of the block containing @p addr. */
    uint64_t blockAddress(uint64_t addr) const;

    const CacheStats &stats() const { return cacheStats; }
    void clearStats() { cacheStats = CacheStats(); }
    const std::string &name() const { return cacheName; }
    const CacheConfig &config() const { return cfg; }

    /**
     * Append tag/LRU/valid state plus the replacement clocks to @p os
     * (statistics are not part of warm state). The geometry is emitted
     * as a restore guard; the enclosing composite blob is versioned by
     * kWarmStateFormatVersion (uarch/warm_state.hh).
     */
    void serializeWarmState(std::ostream &os) const;

    /**
     * Restore state written by serializeWarmState. @return false on a
     * geometry mismatch or short stream; the cache contents are then
     * unspecified and the caller must reset or discard it.
     */
    bool deserializeWarmState(std::istream &is);

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    bool lookupAndFill(uint64_t addr);

    std::string cacheName;
    CacheConfig cfg;
    CacheStats cacheStats;
    std::vector<Line> lines;
    uint32_t numSets;
    /** log2(numSets): the tag is the block number shifted past the set. */
    uint32_t setShift;
    uint32_t blockShift;
    uint64_t lruClock = 0;
    /** Deterministic xorshift state for random replacement. */
    uint64_t rngState = 0x243f6a8885a308d3ULL;
};

// Inline: the detailed core and functional warming look up per access.

inline bool
Cache::lookupAndFill(uint64_t addr)
{
    uint64_t block = addr >> blockShift;
    uint32_t set = static_cast<uint32_t>(block & (numSets - 1));
    uint64_t tag = block >> setShift;

    Line *base = &lines[static_cast<size_t>(set) * cfg.assoc];
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            if (cfg.replacement == ReplacementPolicy::Lru)
                line.lru = ++lruClock; // FIFO keeps insertion order
            return true;
        }
    }
    // Miss: the first invalid way, else the least stamp (lowest way on
    // ties), or a pseudo-random way under the random policy.
    Line *victim = nullptr;
    for (uint32_t w = 0; w < cfg.assoc && !victim; ++w)
        if (!base[w].valid)
            victim = &base[w];
    if (!victim && cfg.replacement == ReplacementPolicy::Random) {
        // xorshift64: cheap, deterministic victim choice.
        rngState ^= rngState << 13;
        rngState ^= rngState >> 7;
        rngState ^= rngState << 17;
        victim = &base[rngState % cfg.assoc];
    } else if (!victim) {
        victim = base;
        for (uint32_t w = 1; w < cfg.assoc; ++w)
            if (base[w].lru < victim->lru)
                victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++lruClock;
    return false;
}

inline bool
Cache::access(uint64_t addr)
{
    ++cacheStats.accesses;
    bool hit = lookupAndFill(addr);
    if (!hit)
        ++cacheStats.misses;
    return hit;
}

inline bool
Cache::touch(uint64_t addr)
{
    return lookupAndFill(addr);
}

} // namespace yasim

#endif // YASIM_UARCH_CACHE_HH
