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
