#include "sim/slot_pool.hh"

#include <algorithm>

namespace yasim {

void
SlotPool::init(uint32_t w)
{
    width = std::max<uint32_t>(w, 1);
    gen = 1;
    slots.assign(kInitialWindow, Slot());
    mask = kInitialWindow - 1;
}

SlotPool::Slot &
SlotPool::grow(uint64_t cycle, uint64_t horizon)
{
    for (;;) {
        // A live cycle owns this record: double the ring. Records
        // sharing an index under the old mask differ in the new bit,
        // so re-homing never collides.
        std::vector<Slot> old = std::move(slots);
        slots.assign(old.size() * 2, Slot());
        mask = slots.size() - 1;
        for (const Slot &o : old)
            if (o.gen == gen && o.cycle > horizon)
                slots[o.cycle & mask] = o;
        Slot &s = slots[cycle & mask];
        if (s.gen != gen || s.cycle <= horizon) {
            s = Slot{cycle, gen, 0};
            return s;
        }
    }
}

void
SlotPool::reset()
{
    if (++gen == 0) {
        // One wrap every 2^32 resets: invalidate the hard way so a
        // stale generation-1 record can never be mistaken for live.
        std::fill(slots.begin(), slots.end(), Slot());
        gen = 1;
    }
}

} // namespace yasim
