#include "uarch/cache.hh"

#include "support/logging.hh"
#include "uarch/warm_state.hh"

namespace yasim {

const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru:
        return "LRU";
      case ReplacementPolicy::Fifo:
        return "FIFO";
      case ReplacementPolicy::Random:
        return "random";
    }
    return "?";
}

namespace {

inline bool
isPow2(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

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

Cache::Cache(std::string name, const CacheConfig &config)
    : cacheName(std::move(name)), cfg(config)
{
    YASIM_ASSERT(isPow2(cfg.blockBytes));
    uint64_t total_bytes = static_cast<uint64_t>(cfg.sizeKb) * 1024;
    uint64_t num_lines = total_bytes / cfg.blockBytes;
    YASIM_ASSERT(num_lines >= cfg.assoc);
    YASIM_ASSERT(num_lines % cfg.assoc == 0);
    numSets = static_cast<uint32_t>(num_lines / cfg.assoc);
    YASIM_ASSERT(isPow2(numSets));
    blockShift = log2u(cfg.blockBytes);
    setShift = log2u(numSets);
    lines.assign(num_lines, Line());
}

uint64_t
Cache::blockAddress(uint64_t addr) const
{
    return addr >> blockShift << blockShift;
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t block = addr >> blockShift;
    uint32_t set = static_cast<uint32_t>(block & (numSets - 1));
    uint64_t tag = block >> setShift;
    const Line *base = &lines[static_cast<size_t>(set) * cfg.assoc];
    for (uint32_t w = 0; w < cfg.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::reset()
{
    for (Line &line : lines)
        line.valid = false;
    lruClock = 0;
}


void
// yasim-lint: serialized(warm)
Cache::serializeWarmState(std::ostream &os) const
{
    using warmio::putPod;
    putPod(os, numSets);
    putPod(os, cfg.assoc);
    putPod(os, blockShift);
    putPod(os, static_cast<uint64_t>(lines.size()));
    putPod(os, lruClock);
    putPod(os, rngState);
    for (const Line &line : lines) {
        putPod(os, line.tag);
        putPod(os, line.lru);
        putPod(os, static_cast<uint8_t>(line.valid ? 1 : 0));
    }
}

bool
// yasim-lint: serialized(warm)
Cache::deserializeWarmState(std::istream &is)
{
    using warmio::getPod;
    uint32_t sets = 0, assoc = 0, shift = 0;
    uint64_t n = 0;
    if (!getPod(is, sets) || !getPod(is, assoc) || !getPod(is, shift) ||
        !getPod(is, n)) {
        return false;
    }
    if (sets != numSets || assoc != cfg.assoc || shift != blockShift ||
        n != lines.size()) {
        return false;
    }
    if (!getPod(is, lruClock) || !getPod(is, rngState))
        return false;
    for (Line &line : lines) {
        uint8_t valid = 0;
        if (!getPod(is, line.tag) || !getPod(is, line.lru) ||
            !getPod(is, valid)) {
            return false;
        }
        line.valid = valid != 0;
    }
    return true;
}

} // namespace yasim
