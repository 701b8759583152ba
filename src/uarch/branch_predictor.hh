/**
 * @file
 * Combined (tournament) branch predictor with BTB.
 *
 * The predictor matches the paper's configurations ("Combined, 4K BHT
 * entries"): a bimodal table of 2-bit counters, a gshare table of 2-bit
 * counters indexed by PC xor global history, and a chooser table of 2-bit
 * counters that selects between them, all sized by the BHT-entries
 * parameter. Branch targets come from a set-associative BTB. A
 * misprediction is a wrong direction or, for a predicted/actually taken
 * branch, a BTB target miss.
 */

#ifndef YASIM_UARCH_BRANCH_PREDICTOR_HH
#define YASIM_UARCH_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace yasim {

/** Direction-predictor organizations. */
enum class PredictorKind
{
    /** Per-PC 2-bit counters only. */
    Bimodal,
    /** Global-history-xor-PC 2-bit counters only. */
    Gshare,
    /** Tournament of the two with a chooser (the paper's "Combined"). */
    Combined,
};

/** Printable predictor-kind name. */
const char *predictorKindName(PredictorKind kind);

/** Sizing knobs for the combined predictor (all the PB factors). */
struct BranchPredictorConfig
{
    /** Direction-predictor organization. */
    PredictorKind kind = PredictorKind::Combined;
    /** Entries in each direction table (power of two). */
    uint32_t bhtEntries = 4096;
    /** Global-history length in bits for the gshare component. */
    uint32_t globalHistoryBits = 12;
    /** BTB entry count (power of two). */
    uint32_t btbEntries = 2048;
    /** BTB associativity. */
    uint32_t btbAssoc = 4;
    /** Update history speculatively at predict time (vs. at resolve). */
    bool speculativeUpdate = true;
};

/** Direction + target prediction outcome. */
struct BranchPrediction
{
    bool taken = false;
    bool btbHit = false;
    uint64_t target = 0;
};

/** Counts kept by the predictor. */
struct BranchPredictorStats
{
    uint64_t lookups = 0;
    uint64_t condBranches = 0;
    uint64_t condMispredicts = 0;
    uint64_t btbMisses = 0;

    /** Conditional-branch direction accuracy in [0, 1]. */
    double directionAccuracy() const
    {
        if (condBranches == 0)
            return 1.0;
        return 1.0 - static_cast<double>(condMispredicts) /
                         static_cast<double>(condBranches);
    }
};

/** Tournament predictor: bimodal + gshare + chooser + BTB. */
class CombinedPredictor
{
  public:
    explicit CombinedPredictor(const BranchPredictorConfig &config);

    /** Predict direction and target for the branch at @p pc. */
    BranchPrediction predict(uint64_t pc) const;

    /**
     * Train on the resolved outcome and report whether the fetch stream
     * was redirected (i.e. a misprediction happened).
     *
     * @param pc          branch address
     * @param conditional true for conditional branches
     * @param taken       resolved direction (true for unconditionals)
     * @param target      resolved target address
     * @return true when direction or target was mispredicted
     */
    bool update(uint64_t pc, bool conditional, bool taken, uint64_t target);

    /**
     * Functional warming: train exactly as update() does but without
     * touching the statistics (SMARTS keeps predictor state hot across
     * skipped regions while measuring only the sampled units).
     */
    void warmUpdate(uint64_t pc, bool conditional, bool taken,
                    uint64_t target);

    /** Reset tables to the initial (cold) state; stats keep counting. */
    void reset();

    const BranchPredictorStats &stats() const { return bpStats; }
    /** Zero the statistics (tables keep their training). */
    void clearStats() { bpStats = BranchPredictorStats(); }

    /**
     * Append direction tables, global history, and the BTB to @p os
     * (no statistics). Table sizes guard restoration; the composite
     * blob is versioned by kWarmStateFormatVersion.
     */
    void serializeWarmState(std::ostream &os) const;

    /**
     * Restore state written by serializeWarmState. @return false on a
     * sizing mismatch or short stream (state then unspecified).
     */
    bool deserializeWarmState(std::istream &is);

  private:
    BranchPredictorConfig config;
    BranchPredictorStats bpStats;

    std::vector<uint8_t> bimodal;
    std::vector<uint8_t> gshare;
    std::vector<uint8_t> chooser;
    uint64_t globalHistory = 0;

    struct BtbEntry
    {
        uint64_t tag = 0;
        uint64_t target = 0;
        uint32_t lru = 0;
        bool valid = false;
    };
    std::vector<BtbEntry> btb;
    uint32_t btbSets;
    uint32_t lruClock = 0;

    /** A 2-bit saturating counter predicts taken at 2 and 3. */
    static bool counterTaken(uint8_t c) { return c >= 2; }
    static uint8_t counterTrain(uint8_t c, bool taken)
    {
        if (taken)
            return c < 3 ? c + 1 : 3;
        return c > 0 ? c - 1 : 0;
    }

    template <bool CountStats>
    bool updateImpl(uint64_t pc, bool conditional, bool taken,
                    uint64_t target);

    uint32_t bimodalIndex(uint64_t pc) const;
    uint32_t gshareIndex(uint64_t pc, uint64_t history) const;
    const BtbEntry *btbLookup(uint64_t pc) const;
    void btbInsert(uint64_t pc, uint64_t target);
};

// Inline: the detailed core and functional warming train per branch.

inline uint32_t
CombinedPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<uint32_t>((pc >> 2) & (config.bhtEntries - 1));
}

inline uint32_t
CombinedPredictor::gshareIndex(uint64_t pc, uint64_t history) const
{
    uint64_t mask = (config.globalHistoryBits >= 64)
                        ? ~0ULL
                        : ((1ULL << config.globalHistoryBits) - 1);
    return static_cast<uint32_t>(((pc >> 2) ^ (history & mask)) &
                                 (config.bhtEntries - 1));
}

inline const CombinedPredictor::BtbEntry *
CombinedPredictor::btbLookup(uint64_t pc) const
{
    uint32_t set = static_cast<uint32_t>((pc >> 2) & (btbSets - 1));
    uint64_t tag = pc >> 2;
    for (uint32_t w = 0; w < config.btbAssoc; ++w) {
        const BtbEntry &e = btb[set * config.btbAssoc + w];
        if (e.valid && e.tag == tag)
            return &e;
    }
    return nullptr;
}

inline void
CombinedPredictor::btbInsert(uint64_t pc, uint64_t target)
{
    uint32_t set = static_cast<uint32_t>((pc >> 2) & (btbSets - 1));
    uint64_t tag = pc >> 2;
    BtbEntry *victim = nullptr;
    for (uint32_t w = 0; w < config.btbAssoc; ++w) {
        BtbEntry &e = btb[set * config.btbAssoc + w];
        if (e.valid && e.tag == tag) {
            victim = &e;
            break;
        }
        if (!victim || !e.valid ||
            (victim->valid && e.lru < victim->lru)) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lru = ++lruClock;
}

inline BranchPrediction
CombinedPredictor::predict(uint64_t pc) const
{
    BranchPrediction pred;
    uint32_t bi = bimodalIndex(pc);
    uint32_t gi = gshareIndex(pc, globalHistory);
    bool bimodal_taken = counterTaken(bimodal[bi]);
    bool gshare_taken = counterTaken(gshare[gi]);
    switch (config.kind) {
      case PredictorKind::Bimodal:
        pred.taken = bimodal_taken;
        break;
      case PredictorKind::Gshare:
        pred.taken = gshare_taken;
        break;
      case PredictorKind::Combined:
        pred.taken = counterTaken(chooser[bi]) ? gshare_taken
                                               : bimodal_taken;
        break;
    }
    if (const BtbEntry *e = btbLookup(pc)) {
        pred.btbHit = true;
        pred.target = e->target;
    }
    return pred;
}

template <bool CountStats>
inline bool
CombinedPredictor::updateImpl(uint64_t pc, bool conditional, bool taken,
                              uint64_t target)
{
    if constexpr (CountStats)
        ++bpStats.lookups;
    BranchPrediction pred = predict(pc);

    bool mispredicted;
    if (conditional) {
        if constexpr (CountStats)
            ++bpStats.condBranches;
        bool wrong_dir = pred.taken != taken;
        bool wrong_target =
            taken && (!pred.btbHit || pred.target != target);
        if (wrong_dir) {
            if constexpr (CountStats)
                ++bpStats.condMispredicts;
        }
        mispredicted = wrong_dir || wrong_target;

        uint32_t bi = bimodalIndex(pc);
        uint32_t gi = gshareIndex(pc, globalHistory);
        bool bimodal_correct = counterTaken(bimodal[bi]) == taken;
        bool gshare_correct = counterTaken(gshare[gi]) == taken;
        if (bimodal_correct != gshare_correct)
            chooser[bi] = counterTrain(chooser[bi], gshare_correct);
        bimodal[bi] = counterTrain(bimodal[bi], taken);
        gshare[gi] = counterTrain(gshare[gi], taken);
        // With speculative update the history already contains this
        // branch at the *next* prediction; without it we still shift at
        // resolve time, which is what this single-pass model expresses.
        (void)config.speculativeUpdate;
        globalHistory = (globalHistory << 1) | (taken ? 1 : 0);
    } else {
        mispredicted = !pred.btbHit || pred.target != target;
    }
    if (!pred.btbHit) {
        if constexpr (CountStats)
            ++bpStats.btbMisses;
    }
    if (taken)
        btbInsert(pc, target);
    return mispredicted;
}

inline bool
CombinedPredictor::update(uint64_t pc, bool conditional, bool taken,
                          uint64_t target)
{
    return updateImpl<true>(pc, conditional, taken, target);
}

inline void
CombinedPredictor::warmUpdate(uint64_t pc, bool conditional, bool taken,
                              uint64_t target)
{
    updateImpl<false>(pc, conditional, taken, target);
}

} // namespace yasim

#endif // YASIM_UARCH_BRANCH_PREDICTOR_HH
