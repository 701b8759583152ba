/** @file Tests for the set-associative cache and the TLB. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/rng.hh"
#include "uarch/cache.hh"
#include "uarch/tlb.hh"
#include "uarch/warm_state.hh"

namespace yasim {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c("t", CacheConfig{4, 2, 64});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same 64B block
    EXPECT_FALSE(c.access(0x1040)); // next block
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, block 64, size 4KB -> 32 sets. Three blocks in one set.
    Cache c("t", CacheConfig{4, 2, 64});
    const uint64_t set_stride = 32 * 64; // same set every stride
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    c.access(0 * set_stride);      // refresh block 0's recency
    c.access(2 * set_stride);      // evicts block 1 (LRU)
    EXPECT_TRUE(c.probe(0 * set_stride));
    EXPECT_FALSE(c.probe(1 * set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, FullyUsedCapacity)
{
    // Working set equal to capacity must fit (no thrashing).
    Cache c("t", CacheConfig{4, 4, 64});
    const uint64_t blocks = 4 * 1024 / 64;
    for (uint64_t pass = 0; pass < 3; ++pass)
        for (uint64_t i = 0; i < blocks; ++i)
            c.access(i * 64);
    // Only the first pass misses.
    EXPECT_EQ(c.stats().misses, blocks);
}

TEST(Cache, OverCapacityThrashesWhenDirectMapped)
{
    // A working set of 2x capacity with LRU + sequential sweep misses
    // every time.
    Cache c("t", CacheConfig{4, 1, 64});
    const uint64_t blocks = 2 * (4 * 1024 / 64);
    for (uint64_t pass = 0; pass < 3; ++pass)
        for (uint64_t i = 0; i < blocks; ++i)
            c.access(i * 64);
    EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Cache, TouchSkipsStats)
{
    Cache c("t", CacheConfig{4, 2, 64});
    c.touch(0x5000);
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_TRUE(c.probe(0x5000)); // but the line was allocated
}

TEST(Cache, ResetInvalidates)
{
    Cache c("t", CacheConfig{4, 2, 64});
    c.access(0x1000);
    c.reset();
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, BlockAddressMasksOffset)
{
    Cache c("t", CacheConfig{4, 2, 64});
    EXPECT_EQ(c.blockAddress(0x1234), 0x1200u);
    EXPECT_EQ(c.blockAddress(0x1240), 0x1240u);
}

TEST(Cache, HitRateMetric)
{
    Cache c("t", CacheConfig{4, 2, 64});
    c.access(0x0);
    c.access(0x0);
    c.access(0x0);
    c.access(0x0);
    EXPECT_DOUBLE_EQ(c.stats().hitRate(), 0.75);
}

TEST(Cache, ReplacementPolicyNames)
{
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Lru), "LRU");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Fifo), "FIFO");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Random),
                 "random");
}

TEST(Cache, FifoIgnoresRecency)
{
    // 2-way set; insert A, B; touch A; insert C.
    // LRU evicts B (A was refreshed); FIFO evicts A (oldest insert).
    const uint64_t stride = 32 * 64;
    CacheConfig geo{4, 2, 64};

    geo.replacement = ReplacementPolicy::Lru;
    Cache lru("lru", geo);
    lru.access(0 * stride);
    lru.access(1 * stride);
    lru.access(0 * stride);
    lru.access(2 * stride);
    EXPECT_TRUE(lru.probe(0 * stride));
    EXPECT_FALSE(lru.probe(1 * stride));

    geo.replacement = ReplacementPolicy::Fifo;
    Cache fifo("fifo", geo);
    fifo.access(0 * stride);
    fifo.access(1 * stride);
    fifo.access(0 * stride);
    fifo.access(2 * stride);
    EXPECT_FALSE(fifo.probe(0 * stride));
    EXPECT_TRUE(fifo.probe(1 * stride));
}

TEST(Cache, RandomReplacementStillCaches)
{
    CacheConfig geo{4, 4, 64};
    geo.replacement = ReplacementPolicy::Random;
    Cache c("rnd", geo);
    // A cache-resident working set must still converge to ~100% hits.
    const uint64_t blocks = 4 * 1024 / 64;
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t i = 0; i < blocks; ++i)
            c.access(i * 64);
    EXPECT_EQ(c.stats().misses, blocks);
    // And is deterministic across identical runs.
    Cache d("rnd2", geo);
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t i = 0; i < blocks; ++i)
            d.access(i * 64);
    EXPECT_EQ(c.stats().misses, d.stats().misses);
}

TEST(Cache, RandomFillsInvalidWaysFirst)
{
    CacheConfig geo{4, 4, 64};
    geo.replacement = ReplacementPolicy::Random;
    Cache c("rnd", geo);
    const uint64_t stride = 16 * 64; // 16 sets -> same set each stride
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * stride);
    // All four ways were invalid, so nothing may have been evicted.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(i * stride)) << i;
}

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb("t", 4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1ff8)); // same 4K page
    EXPECT_FALSE(tlb.access(0x2000)); // next page
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb("t", 2);
    tlb.access(0x1000);  // page 1
    tlb.access(0x2000);  // page 2
    tlb.access(0x1000);  // refresh page 1
    tlb.access(0x3000);  // evicts page 2
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, TouchSkipsStats)
{
    Tlb tlb("t", 4);
    tlb.touch(0x1000);
    EXPECT_EQ(tlb.stats().accesses, 0u);
    EXPECT_TRUE(tlb.access(0x1000));
}

TEST(Tlb, ResetForgets)
{
    Tlb tlb("t", 4);
    tlb.access(0x1000);
    tlb.reset();
    EXPECT_FALSE(tlb.access(0x1000));
}

// ------------------------------------------------ differential TLB check

/**
 * The linear-scan TLB that the indexed one replaced, kept as the
 * reference model: the same entry array, stamps, victim rule and warm
 * byte layout, at O(entries) per access.
 */
class ScanTlb
{
  public:
    explicit ScanTlb(uint32_t n) : entries(n) {}

    bool lookupAndFill(uint64_t addr)
    {
        uint64_t page = addr >> kPageShift;
        Entry *victim = &entries[0];
        for (Entry &e : entries) {
            if (e.valid && e.page == page) {
                e.lru = ++lruClock;
                return true;
            }
            if (!e.valid) {
                victim = &e;
            } else if (victim->valid && e.lru < victim->lru) {
                victim = &e;
            }
        }
        victim->valid = true;
        victim->page = page;
        victim->lru = ++lruClock;
        return false;
    }

    void reset()
    {
        for (Entry &e : entries)
            e.valid = false;
        lruClock = 0;
    }

    /** Tlb::serializeWarmState's byte layout. */
    std::string serialize() const
    {
        std::ostringstream os;
        warmio::putPod(os, kPageShift);
        warmio::putPod(os, static_cast<uint64_t>(entries.size()));
        warmio::putPod(os, lruClock);
        for (const Entry &e : entries) {
            warmio::putPod(os, e.page);
            warmio::putPod(os, e.lru);
            warmio::putPod(os, static_cast<uint8_t>(e.valid ? 1 : 0));
        }
        return os.str();
    }

    struct Entry
    {
        uint64_t page = 0;
        uint64_t lru = 0;
        bool valid = false;
    };
    static constexpr uint32_t kPageShift = 12;
    std::vector<Entry> entries;
    uint64_t lruClock = 0;
};

std::string
tlbBytes(const Tlb &tlb)
{
    std::ostringstream os;
    tlb.serializeWarmState(os);
    return os.str();
}

bool
restoreTlb(Tlb &tlb, const std::string &bytes)
{
    std::istringstream is(bytes);
    return tlb.deserializeWarmState(is);
}

/**
 * Drive @p tlb and @p ref with @p steps seeded accesses over
 * @p working_set pages, half of them repeats of a recent page, mixing
 * access() and touch(). Checks hit/miss on every call and the warm
 * bytes every 97 steps.
 */
void
driveBoth(Tlb &tlb, ScanTlb &ref, Rng &rng, uint64_t working_set,
          int steps)
{
    uint64_t recent = 0;
    for (int i = 0; i < steps; ++i) {
        uint64_t page = rng.nextBool(0.5)
                            ? recent + rng.nextBelow(2)
                            : rng.nextBelow(working_set);
        recent = page;
        uint64_t addr = (page << ScanTlb::kPageShift) + rng.nextBelow(4096);
        bool expected = ref.lookupAndFill(addr);
        bool got = rng.nextBool(0.5) ? tlb.access(addr) : tlb.touch(addr);
        ASSERT_EQ(got, expected) << "step " << i << " page " << page;
        if (i % 97 == 0) {
            ASSERT_EQ(tlbBytes(tlb), ref.serialize()) << "step " << i;
        }
    }
    ASSERT_EQ(tlbBytes(tlb), ref.serialize());
}

TEST(TlbDifferential, MatchesLinearScanAcrossSizesAndWorkingSets)
{
    for (uint32_t n : {1u, 16u, 64u, 256u}) {
        for (uint64_t working_set :
             {uint64_t(std::max(1u, n / 2)), uint64_t(n),
              uint64_t(n) + 1, uint64_t(2 * n), uint64_t(8 * n)}) {
            SCOPED_TRACE("entries " + std::to_string(n) +
                         ", working set " + std::to_string(working_set));
            Rng rng(n * 1000003ULL + working_set);
            Tlb tlb("t", n);
            ScanTlb ref(n);
            ASSERT_EQ(tlbBytes(tlb), ref.serialize());
            driveBoth(tlb, ref, rng, working_set, 3000);

            // reset() mid-stream: entries keep their stale pages and
            // stamps, and the refill order must still match.
            tlb.reset();
            ref.reset();
            ASSERT_EQ(tlbBytes(tlb), ref.serialize());
            driveBoth(tlb, ref, rng, working_set, 3000);

            // Serialize -> deserialize into a fresh TLB mid-stream.
            Tlb restored("t", n);
            ASSERT_TRUE(restoreTlb(restored, tlbBytes(tlb)));
            ASSERT_EQ(tlbBytes(restored), ref.serialize());
            driveBoth(restored, ref, rng, working_set, 3000);
        }
    }
}

TEST(TlbDifferential, HandMadeBlobWithTiesAndHolesEvictsLikeTheScan)
{
    // Eight slots: invalid at 1, 4 and 6; valid stamps tie at 5 (slots
    // 0, 3, 7) and at 2 (slots 2, 5). The scan fills the holes from the
    // highest (6, 4, 1), then evicts by (lru, slot): 2, 5, 0, 3, 7.
    auto hand_made = []() {
        ScanTlb ref(8);
        ref.lruClock = 9;
        const uint64_t lru[8] = {5, 8, 2, 5, 1, 2, 3, 5};
        const bool valid[8] = {true,  false, true,  true,
                               false, true,  false, true};
        for (int s = 0; s < 8; ++s)
            ref.entries[s] = {100 + uint64_t(s), lru[s], valid[s]};
        return ref;
    };
    ScanTlb ref = hand_made();
    const std::string blob = ref.serialize();
    Tlb tlb("t", 8);
    ASSERT_TRUE(restoreTlb(tlb, blob));
    ASSERT_EQ(tlbBytes(tlb), blob);

    // Fresh pages only: every access misses and picks a victim.
    const int fill_order[] = {6, 4, 1, 2, 5, 0, 3, 7};
    for (int i = 0; i < 8; ++i) {
        uint64_t addr = (200 + uint64_t(i)) << ScanTlb::kPageShift;
        ASSERT_FALSE(ref.lookupAndFill(addr));
        ASSERT_FALSE(tlb.access(addr));
        EXPECT_EQ(ref.entries[fill_order[i]].page, 200 + uint64_t(i));
        ASSERT_EQ(tlbBytes(tlb), ref.serialize()) << "fill " << i;
    }

    // A seeded mixed stream from the same restored state, hitting the
    // hand-made pages as well as new ones.
    ScanTlb ref2 = hand_made();
    Tlb again("t", 8);
    ASSERT_TRUE(restoreTlb(again, blob));
    Rng rng(7);
    driveBoth(again, ref2, rng, 112, 2000);
}

TEST(TlbDifferential, RejectsBlobsNoTlbCouldWrite)
{
    ScanTlb forged(4);
    forged.lruClock = 4;
    forged.entries[0] = {7, 1, true};
    forged.entries[2] = {7, 3, true}; // page 7 twice
    Tlb tlb("t", 4);
    EXPECT_FALSE(restoreTlb(tlb, forged.serialize()));
    EXPECT_FALSE(tlb.access(7 << ScanTlb::kPageShift)); // left cold

    forged.entries[2] = {8, 5, true}; // stamp ahead of the clock
    EXPECT_FALSE(restoreTlb(tlb, forged.serialize()));
    EXPECT_FALSE(tlb.access(8 << ScanTlb::kPageShift));

    forged.entries[2] = {8, 3, true}; // the same array, made consistent
    EXPECT_TRUE(restoreTlb(tlb, forged.serialize()));
    EXPECT_TRUE(tlb.access(8 << ScanTlb::kPageShift));
}

/** Sweep: a working set of W blocks fits iff capacity >= W. */
class CacheCapacitySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CacheCapacitySweep, SteadyStateMissBehaviour)
{
    auto [size_kb, assoc] = GetParam();
    Cache c("t", CacheConfig{size_kb, assoc, 64});
    const uint64_t ws_blocks = 8 * 1024 / 64; // 8 KB working set
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t i = 0; i < ws_blocks; ++i)
            c.access(i * 64);
    double miss_rate = 1.0 - c.stats().hitRate();
    if (size_kb >= 8) {
        EXPECT_LT(miss_rate, 0.30) << size_kb << "KB/" << assoc;
    } else {
        EXPECT_GT(miss_rate, 0.90) << size_kb << "KB/" << assoc;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCapacitySweep,
    ::testing::Values(std::make_tuple(4u, 1u), std::make_tuple(4u, 4u),
                      std::make_tuple(8u, 2u), std::make_tuple(16u, 4u),
                      std::make_tuple(32u, 8u)));

} // namespace
} // namespace yasim
