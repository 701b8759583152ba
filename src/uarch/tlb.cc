#include "uarch/tlb.hh"

#include <algorithm>

#include "support/check.hh"
#include "support/logging.hh"
#include "uarch/warm_state.hh"

namespace yasim {

namespace {

inline uint32_t
log2u(uint32_t v)
{
    uint32_t r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

} // namespace

Tlb::Tlb(std::string name, uint32_t num_entries, uint32_t page_bytes)
    : tlbName(std::move(name))
{
    YASIM_ASSERT(num_entries >= 1);
    YASIM_ASSERT(page_bytes != 0 && (page_bytes & (page_bytes - 1)) == 0);
    pageShift = log2u(page_bytes);
    entries.assign(num_entries, Entry());
    links.assign(num_entries, Link());
    // At most half full, so every probe sequence meets an empty cell.
    uint32_t index_bits = 1;
    while ((uint64_t(1) << index_bits) < 2 * uint64_t(num_entries))
        ++index_bits;
    index.assign(size_t(1) << index_bits, IndexCell());
    indexShift = 64 - index_bits;
    freeSlots.reserve(num_entries);
    rebuildDerived();
}

void
Tlb::indexInsert(uint64_t page, uint32_t slot)
{
    const uint32_t mask = static_cast<uint32_t>(index.size() - 1);
    uint32_t i = indexHome(page);
    while (index[i].slot != kNoSlot)
        i = (i + 1) & mask;
    index[i] = IndexCell{page, slot};
}

void
Tlb::indexErase(uint64_t page)
{
    const uint32_t mask = static_cast<uint32_t>(index.size() - 1);
    uint32_t hole = indexHome(page);
    while (index[hole].page != page)
        hole = (hole + 1) & mask;
    YASIM_DCHECK(index[hole].slot != kNoSlot);
    // Backward-shift deletion: pull each later cell of the probe run
    // into the hole unless its home lies cyclically in (hole, j].
    for (uint32_t j = (hole + 1) & mask; index[j].slot != kNoSlot;
         j = (j + 1) & mask) {
        const uint32_t home = indexHome(index[j].page);
        const bool stays = hole <= j ? (hole < home && home <= j)
                                     : (hole < home || home <= j);
        if (stays)
            continue;
        index[hole] = index[j];
        hole = j;
    }
    index[hole] = IndexCell();
}

void
Tlb::fill(uint64_t page)
{
    uint32_t slot;
    if (!freeSlots.empty()) {
        // Slots only leave the free set, so its top stays the
        // highest-index invalid slot.
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = lruHead;
        lruUnlink(slot);
        indexErase(entries[slot].page);
    }
    Entry &e = entries[slot];
    e.valid = true;
    e.page = page;
    indexInsert(page, slot);
    e.lru = ++lruClock;
    lruAppend(slot);
}

bool
Tlb::rebuildDerived()
{
    std::fill(index.begin(), index.end(), IndexCell());
    freeSlots.clear();
    lruHead = lruTail = kNoSlot;
    std::vector<uint32_t> order;
    for (uint32_t s = 0; s < entries.size(); ++s) {
        const Entry &e = entries[s];
        if (!e.valid) {
            freeSlots.push_back(s);
            continue;
        }
        // Every stamp comes from ++lruClock and lookups stop at the
        // first match, so a TLB never holds either of these.
        if (e.lru > lruClock || indexFind(e.page) != kNoSlot)
            return false;
        indexInsert(e.page, s);
        order.push_back(s);
    }
    // Ascending (lru, slot): the scan's victim among valid entries is
    // the least lru, and the lowest slot among equal ones.
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return entries[a].lru < entries[b].lru;
                     });
    for (uint32_t s : order)
        lruAppend(s);
    return true;
}

void
Tlb::reset()
{
    for (Entry &e : entries)
        e.valid = false;
    lruClock = 0;
    rebuildDerived();
}


void
// yasim-lint: serialized(warm)
Tlb::serializeWarmState(std::ostream &os) const
{
    using warmio::putPod;
    putPod(os, pageShift);
    putPod(os, static_cast<uint64_t>(entries.size()));
    putPod(os, lruClock);
    for (const Entry &e : entries) {
        putPod(os, e.page);
        putPod(os, e.lru);
        putPod(os, static_cast<uint8_t>(e.valid ? 1 : 0));
    }
}

bool
// yasim-lint: serialized(warm)
Tlb::deserializeWarmState(std::istream &is)
{
    using warmio::getPod;
    auto read = [&]() {
        uint32_t shift = 0;
        uint64_t n = 0;
        if (!getPod(is, shift) || !getPod(is, n))
            return false;
        if (shift != pageShift || n != entries.size())
            return false;
        if (!getPod(is, lruClock))
            return false;
        for (Entry &e : entries) {
            uint8_t valid = 0;
            if (!getPod(is, e.page) || !getPod(is, e.lru) ||
                !getPod(is, valid)) {
                return false;
            }
            e.valid = valid != 0;
        }
        return true;
    };
    if (read() && rebuildDerived())
        return true;
    reset();
    return false;
}

} // namespace yasim
