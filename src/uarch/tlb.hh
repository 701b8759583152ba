/**
 * @file
 * Fully-associative translation lookaside buffer.
 *
 * The PB parameter space includes I-TLB and D-TLB sizes and the TLB miss
 * latency; a fully-associative LRU array of page entries is enough to make
 * those parameters bite.
 *
 * Every access is O(1): a page->slot hash index finds a hit, an
 * intrusive list ordered by (lru, slot) names the LRU victim, and a
 * stack of free slots names the fill slot while any entry is invalid.
 * These are derived state. The entry array, with its lru stamps, is
 * the model and the serialized warm state, and the derived state
 * reproduces exactly what a linear scan of it would choose.
 */

#ifndef YASIM_UARCH_TLB_HH
#define YASIM_UARCH_TLB_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace yasim {

/** TLB hit/miss counters. */
struct TlbStats
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

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param name       for reports
     * @param entries    number of page entries
     * @param page_bytes page size (power of two)
     */
    Tlb(std::string name, uint32_t entries, uint32_t page_bytes = 4096);

    /** Translate the page of @p addr; fills on miss. @return true on hit. */
    bool access(uint64_t addr);

    /** As access() but without statistics (warming). */
    bool touch(uint64_t addr);

    /** Drop all entries. */
    void reset();

    const TlbStats &stats() const { return tlbStats; }
    void clearStats() { tlbStats = TlbStats(); }

    /** As Cache::serializeWarmState, for the TLB entry array. */
    void serializeWarmState(std::ostream &os) const;

    /**
     * As Cache::deserializeWarmState. A stream no TLB could have
     * written (one page in two valid entries, or a valid stamp ahead
     * of the clock) is rejected too. On failure the TLB is left reset.
     */
    bool deserializeWarmState(std::istream &is);

  private:
    static constexpr uint32_t kNoSlot = ~0u;

    /**
     * The linear-scan semantics, in O(1): a hit restamps the entry; a
     * miss fills the highest-index invalid slot if there is one, else
     * the valid entry with the least lru (lowest slot on ties).
     */
    bool lookupAndFill(uint64_t addr);

    /** The miss half of lookupAndFill: install @p page. */
    void fill(uint64_t page);

    /** Rebuild index, LRU list and free stack from the entry array. */
    bool rebuildDerived();

    uint32_t indexHome(uint64_t page) const;
    /** Slot holding valid @p page, or kNoSlot. */
    uint32_t indexFind(uint64_t page) const;
    void indexInsert(uint64_t page, uint32_t slot);
    /** Remove @p page (which must be present); backward-shift delete. */
    void indexErase(uint64_t page);

    void lruUnlink(uint32_t slot);
    /** Link @p slot as the most recent entry. */
    void lruAppend(uint32_t slot);

    std::string tlbName;
    uint32_t pageShift;
    TlbStats tlbStats;

    struct Entry
    {
        uint64_t page = 0;
        uint64_t lru = 0;
        bool valid = false;
    };
    std::vector<Entry> entries;
    uint64_t lruClock = 0;

    // --- Derived lookup state (never serialized) ---
    /** Open-addressing (linear probing) page -> slot index. */
    struct IndexCell
    {
        uint64_t page = 0;
        uint32_t slot = kNoSlot;
    };
    std::vector<IndexCell> index;
    uint32_t indexShift = 0;
    /** Valid entries in ascending (lru, slot) order; head is the victim. */
    struct Link
    {
        uint32_t prev = kNoSlot;
        uint32_t next = kNoSlot;
    };
    std::vector<Link> links;
    uint32_t lruHead = kNoSlot;
    uint32_t lruTail = kNoSlot;
    /** Invalid slots in ascending order; back() is the highest. */
    std::vector<uint32_t> freeSlots;
};

// The hit path is inline, as the cache's is; a miss calls fill().

inline uint32_t
Tlb::indexHome(uint64_t page) const
{
    return static_cast<uint32_t>((page * 0x9e3779b97f4a7c15ULL) >>
                                 indexShift);
}

inline uint32_t
Tlb::indexFind(uint64_t page) const
{
    const uint32_t mask = static_cast<uint32_t>(index.size() - 1);
    for (uint32_t i = indexHome(page);; i = (i + 1) & mask) {
        const IndexCell &cell = index[i];
        if (cell.slot == kNoSlot)
            return kNoSlot;
        if (cell.page == page)
            return cell.slot;
    }
}

inline void
Tlb::lruUnlink(uint32_t slot)
{
    const Link &l = links[slot];
    if (l.prev == kNoSlot)
        lruHead = l.next;
    else
        links[l.prev].next = l.next;
    if (l.next == kNoSlot)
        lruTail = l.prev;
    else
        links[l.next].prev = l.prev;
}

inline void
Tlb::lruAppend(uint32_t slot)
{
    links[slot] = Link{lruTail, kNoSlot};
    if (lruTail == kNoSlot)
        lruHead = slot;
    else
        links[lruTail].next = slot;
    lruTail = slot;
}

inline bool
Tlb::lookupAndFill(uint64_t addr)
{
    const uint64_t page = addr >> pageShift;
    // Every valid stamp is at most lruClock, so a fresh stamp always
    // moves its entry to the list tail. The tail is therefore the most
    // recent page, and restamping it leaves the order unchanged.
    if (lruTail != kNoSlot && entries[lruTail].page == page) {
        entries[lruTail].lru = ++lruClock;
        return true;
    }
    const uint32_t slot = indexFind(page);
    if (slot == kNoSlot) {
        fill(page);
        return false;
    }
    lruUnlink(slot);
    entries[slot].lru = ++lruClock;
    lruAppend(slot);
    return true;
}

inline bool
Tlb::access(uint64_t addr)
{
    ++tlbStats.accesses;
    bool hit = lookupAndFill(addr);
    if (!hit)
        ++tlbStats.misses;
    return hit;
}

inline bool
Tlb::touch(uint64_t addr)
{
    return lookupAndFill(addr);
}

} // namespace yasim

#endif // YASIM_UARCH_TLB_HH
