/**
 * @file
 * Per-cycle slot pool for the OOO core's non-monotonic schedulers
 * (issue ports, memory ports, pipelined FU pools).
 *
 * A ring of {cycle, gen, used} records indexed by cycle & mask. A
 * record serves only its own cycle in the current generation; any
 * other record is stale and is claimed with zero usage when its index
 * is next touched. A generation tag makes reset() O(1) — sampling
 * techniques reset the pipeline per sample.
 *
 * The ring is exact at any size. Every query is for a cycle after the
 * horizon, the current instruction's dispatch cycle, and dispatch never
 * moves backwards, so a record at or before the horizon can never be
 * queried again. When a claim would evict a current record that is
 * still live (after the horizon), the ring doubles, re-homing each live
 * record, instead of aliasing it. The pool therefore answers exactly
 * as an unbounded per-cycle array would.
 */

#ifndef YASIM_SIM_SLOT_POOL_HH
#define YASIM_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.hh"

namespace yasim {

/** Exact per-cycle slot counts over a growable ring. */
class SlotPool
{
  public:
    /** Empty pool of @p width slots per cycle. */
    void init(uint32_t width);

    /**
     * First cycle >= @p earliest with a free slot (does not consume).
     * @p horizon is the current dispatch cycle; @p earliest must be
     * after it, and the horizon must never decrease between resets.
     */
    uint64_t findFree(uint64_t earliest, uint64_t horizon)
    {
        for (uint64_t c = earliest;; ++c)
            if (slotFor(c, horizon).used < width)
                return c;
    }

    /** Consume one slot at @p cycle, after @p horizon. */
    void consume(uint64_t cycle, uint64_t horizon)
    {
        ++slotFor(cycle, horizon).used;
    }

    /** Invalidate every slot by bumping the generation. O(1). */
    void reset();

    /** Records in the ring: grows only when live cycles would alias. */
    size_t window() const { return slots.size(); }

  private:
    /** Records a fresh ring starts with (4 KiB). */
    static constexpr size_t kInitialWindow = 256;
    static_assert((kInitialWindow & (kInitialWindow - 1)) == 0,
                  "the ring is indexed by cycle & mask");

    struct Slot
    {
        uint64_t cycle = 0;
        /** 0 never occurs as a generation, so a fresh Slot is stale. */
        uint32_t gen = 0;
        uint32_t used = 0;
    };

    /**
     * The record of @p cycle, claimed with zero usage if stale (another
     * generation) or dead (at or before the horizon).
     */
    Slot &slotFor(uint64_t cycle, uint64_t horizon)
    {
        Slot &s = slots[cycle & mask];
        if (s.gen == gen && s.cycle == cycle) [[likely]]
            return s;
        YASIM_CHECK(cycle > horizon,
                    "slot claim at cycle %llu, at or before dispatch %llu",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(horizon));
        if (s.gen != gen || s.cycle <= horizon) {
            s = Slot{cycle, gen, 0};
            return s;
        }
        return grow(cycle, horizon);
    }

    /**
     * Double the ring until @p cycle's record is free, re-homing every
     * live record, then claim it.
     */
    Slot &grow(uint64_t cycle, uint64_t horizon);

    uint32_t width = 1;
    uint32_t gen = 1;
    uint64_t mask = 0;
    std::vector<Slot> slots;
};

} // namespace yasim

#endif // YASIM_SIM_SLOT_POOL_HH
