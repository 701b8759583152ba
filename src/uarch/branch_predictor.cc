#include "uarch/branch_predictor.hh"

#include "support/logging.hh"
#include "uarch/warm_state.hh"

namespace yasim {

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Bimodal:
        return "bimodal";
      case PredictorKind::Gshare:
        return "gshare";
      case PredictorKind::Combined:
        return "combined";
    }
    return "?";
}

namespace {

inline bool
counterTaken(uint8_t c)
{
    return c >= 2;
}

inline uint8_t
counterTrain(uint8_t c, bool taken)
{
    if (taken)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

inline bool
isPow2(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

CombinedPredictor::CombinedPredictor(const BranchPredictorConfig &cfg)
    : config(cfg)
{
    YASIM_ASSERT(isPow2(config.bhtEntries));
    // A power-of-two entry count split into whole sets leaves a
    // power-of-two set count, so the BTB set is a mask.
    YASIM_ASSERT(isPow2(config.btbEntries));
    YASIM_ASSERT(config.btbAssoc >= 1 &&
                 config.btbEntries % config.btbAssoc == 0);
    bimodal.assign(config.bhtEntries, 1); // weakly not-taken
    gshare.assign(config.bhtEntries, 1);
    chooser.assign(config.bhtEntries, 2); // weakly prefer gshare
    btb.assign(config.btbEntries, BtbEntry());
    btbSets = config.btbEntries / config.btbAssoc;
}

uint32_t
CombinedPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<uint32_t>((pc >> 2) & (config.bhtEntries - 1));
}

uint32_t
CombinedPredictor::gshareIndex(uint64_t pc, uint64_t history) const
{
    uint64_t mask = (config.globalHistoryBits >= 64)
                        ? ~0ULL
                        : ((1ULL << config.globalHistoryBits) - 1);
    return static_cast<uint32_t>(((pc >> 2) ^ (history & mask)) &
                                 (config.bhtEntries - 1));
}

const CombinedPredictor::BtbEntry *
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

void
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

BranchPrediction
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
bool
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

bool
CombinedPredictor::update(uint64_t pc, bool conditional, bool taken,
                          uint64_t target)
{
    return updateImpl<true>(pc, conditional, taken, target);
}

void
CombinedPredictor::warmUpdate(uint64_t pc, bool conditional, bool taken,
                              uint64_t target)
{
    updateImpl<false>(pc, conditional, taken, target);
}

void
CombinedPredictor::reset()
{
    bimodal.assign(config.bhtEntries, 1);
    gshare.assign(config.bhtEntries, 1);
    chooser.assign(config.bhtEntries, 2);
    btb.assign(config.btbEntries, BtbEntry());
    globalHistory = 0;
    lruClock = 0;
}


namespace {

/** One direction table: size guard + raw 2-bit counter bytes. */
void
putTable(std::ostream &os, const std::vector<uint8_t> &table)
{
    warmio::putPod(os, static_cast<uint64_t>(table.size()));
    os.write(reinterpret_cast<const char *>(table.data()),
             static_cast<std::streamsize>(table.size()));
}

bool
getTable(std::istream &is, std::vector<uint8_t> &table)
{
    uint64_t n = 0;
    if (!warmio::getPod(is, n) || n != table.size())
        return false;
    is.read(reinterpret_cast<char *>(table.data()),
            static_cast<std::streamsize>(table.size()));
    return is.good() || table.empty();
}

} // namespace

void
// yasim-lint: serialized(warm)
CombinedPredictor::serializeWarmState(std::ostream &os) const
{
    using warmio::putPod;
    putTable(os, bimodal);
    putTable(os, gshare);
    putTable(os, chooser);
    putPod(os, globalHistory);
    putPod(os, btbSets);
    putPod(os, static_cast<uint64_t>(btb.size()));
    putPod(os, lruClock);
    for (const BtbEntry &e : btb) {
        putPod(os, e.tag);
        putPod(os, e.target);
        putPod(os, e.lru);
        putPod(os, static_cast<uint8_t>(e.valid ? 1 : 0));
    }
}

bool
// yasim-lint: serialized(warm)
CombinedPredictor::deserializeWarmState(std::istream &is)
{
    using warmio::getPod;
    if (!getTable(is, bimodal) || !getTable(is, gshare) ||
        !getTable(is, chooser)) {
        return false;
    }
    uint32_t sets = 0;
    uint64_t n = 0;
    if (!getPod(is, globalHistory) || !getPod(is, sets) || !getPod(is, n))
        return false;
    if (sets != btbSets || n != btb.size())
        return false;
    if (!getPod(is, lruClock))
        return false;
    for (BtbEntry &e : btb) {
        uint8_t valid = 0;
        if (!getPod(is, e.tag) || !getPod(is, e.target) ||
            !getPod(is, e.lru) || !getPod(is, valid)) {
            return false;
        }
        e.valid = valid != 0;
    }
    return true;
}

} // namespace yasim
