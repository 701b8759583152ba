/**
 * @file
 * Two-level memory hierarchy: split L1 I/D, unified L2, main memory,
 * I/D TLBs, and the optional next-line prefetcher.
 *
 * The hierarchy returns an access *latency* for the timing model and
 * keeps the hit-rate statistics the characterizations consume. Main
 * memory is charged as first-word latency plus per-chunk latency for the
 * rest of the block, matching the paper's "Memory Lat (Cycles): First,
 * Following" parameters.
 *
 * The next-line (one-block-lookahead) prefetcher implements the NLP
 * enhancement [Jouppi90]: on every L1-D miss, the sequentially next block
 * is also brought into L1-D (and L2). It is speculative and, in this
 * model, charged no extra latency on the demand path.
 */

#ifndef YASIM_UARCH_MEMORY_HIERARCHY_HH
#define YASIM_UARCH_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "uarch/cache.hh"
#include "uarch/tlb.hh"

namespace yasim {

/** All memory-system sizing and latency knobs. */
struct MemoryConfig
{
    CacheConfig l1i{32, 2, 64};
    CacheConfig l1d{32, 2, 64};
    CacheConfig l2{256, 4, 128};

    // Latencies and bus width shape cycle counts, never the warmed
    // tag/TLB/predictor tables, so the live-point warm key excludes
    // them (a latency sweep shares one set of live-points).
    uint32_t l1iLatency = 1; // yasim-lint: key-exempt(warm: timing-only)
    uint32_t l1dLatency = 1; // yasim-lint: key-exempt(warm: timing-only)
    uint32_t l2Latency = 8;  // yasim-lint: key-exempt(warm: timing-only)
    /** Cycles to the first chunk from main memory. */
    uint32_t memLatencyFirst = 150; // yasim-lint: key-exempt(warm: timing-only)
    /** Cycles per additional chunk. */
    uint32_t memLatencyNext = 2; // yasim-lint: key-exempt(warm: timing-only)
    /** Memory bus width in bytes (chunk size). */
    uint32_t memBusBytes = 8; // yasim-lint: key-exempt(warm: timing-only)

    uint32_t itlbEntries = 64;
    uint32_t dtlbEntries = 128;
    uint32_t tlbMissLatency = 30; // yasim-lint: key-exempt(warm: timing-only)

    /** Enable the next-line prefetcher on the data side. */
    bool nextLinePrefetch = false;
};

/** Prefetcher effectiveness counters. */
struct PrefetchStats
{
    uint64_t issued = 0;
    /** Prefetches that found the line already resident (wasted). */
    uint64_t redundant = 0;
};

/** The full cache/TLB/memory stack. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &config);

    /** Latency in cycles of an instruction fetch at @p addr. */
    uint32_t instAccess(uint64_t addr);

    /** Latency in cycles of a data read/write at @p addr. */
    uint32_t dataAccess(uint64_t addr, bool is_write);

    /**
     * Functional warming: update cache/TLB state for a data access
     * without counting statistics or computing latency (SMARTS's
     * warming mode and FF X + WU Y warm-up).
     */
    void warmData(uint64_t addr);

    /** Functional warming of the instruction side. */
    void warmInst(uint64_t addr);

    /** Invalidate all caches and TLBs (cold start). */
    void reset();

    /** Zero all statistics; cache contents keep their training. */
    void clearStats();

    const CacheStats &l1iStats() const { return l1i.stats(); }
    const CacheStats &l1dStats() const { return l1d.stats(); }
    const CacheStats &l2Stats() const { return l2.stats(); }
    const TlbStats &itlbStats() const { return itlb.stats(); }
    const TlbStats &dtlbStats() const { return dtlb.stats(); }
    const PrefetchStats &prefetchStats() const { return pfStats; }

    const MemoryConfig &config() const { return cfg; }

    /**
     * Serialize the warmed state of every cache and TLB as one stream
     * opening with kWarmStateFormatVersion (uarch/warm_state.hh).
     * Statistics are excluded: warm state is table training only.
     */
    void serializeWarmState(std::ostream &os) const;

    /**
     * Restore a stream written by serializeWarmState. @return false on
     * a version or geometry mismatch or a short stream; the hierarchy
     * is then partially mutated and must be reset or discarded.
     */
    bool deserializeWarmState(std::istream &is);

  private:
    void prefetchNextLine(uint64_t addr);

    MemoryConfig cfg;
    /** Cycles to fill an L2 block from main memory. */
    uint32_t memoryLatency;
    Cache l1i;
    Cache l1d;
    Cache l2;
    Tlb itlb;
    Tlb dtlb;
    PrefetchStats pfStats;
};

// Inline, with the lookups they make: a hit makes no out-of-line call.

inline uint32_t
MemoryHierarchy::instAccess(uint64_t addr)
{
    uint32_t latency = cfg.l1iLatency;
    if (!itlb.access(addr))
        latency += cfg.tlbMissLatency;
    if (!l1i.access(addr)) {
        latency += cfg.l2Latency;
        if (!l2.access(addr))
            latency += memoryLatency;
    }
    return latency;
}

inline uint32_t
MemoryHierarchy::dataAccess(uint64_t addr, bool is_write)
{
    (void)is_write; // write-allocate: both directions fill identically
    uint32_t latency = cfg.l1dLatency;
    if (!dtlb.access(addr))
        latency += cfg.tlbMissLatency;
    if (!l1d.access(addr)) {
        latency += cfg.l2Latency;
        if (!l2.access(addr))
            latency += memoryLatency;
        if (cfg.nextLinePrefetch)
            prefetchNextLine(addr);
    }
    return latency;
}

} // namespace yasim

#endif // YASIM_UARCH_MEMORY_HIERARCHY_HH
