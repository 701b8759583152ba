#include "uarch/memory_hierarchy.hh"

#include "uarch/warm_state.hh"

namespace yasim {

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &config)
    : cfg(config),
      l1i("l1i", cfg.l1i),
      l1d("l1d", cfg.l1d),
      l2("l2", cfg.l2),
      itlb("itlb", cfg.itlbEntries),
      dtlb("dtlb", cfg.dtlbEntries)
{
    uint32_t chunks =
        (cfg.l2.blockBytes + cfg.memBusBytes - 1) / cfg.memBusBytes;
    if (chunks == 0)
        chunks = 1;
    memoryLatency = cfg.memLatencyFirst + (chunks - 1) * cfg.memLatencyNext;
}

void
MemoryHierarchy::prefetchNextLine(uint64_t addr)
{
    uint64_t next = l1d.blockAddress(addr) + cfg.l1d.blockBytes;
    ++pfStats.issued;
    if (l1d.probe(next)) {
        ++pfStats.redundant;
        return;
    }
    l1d.touch(next);
    l2.touch(next);
}

void
MemoryHierarchy::warmData(uint64_t addr)
{
    dtlb.touch(addr);
    if (!l1d.touch(addr)) {
        l2.touch(addr);
        if (cfg.nextLinePrefetch)
            prefetchNextLine(addr);
    }
}

void
MemoryHierarchy::warmInst(uint64_t addr)
{
    itlb.touch(addr);
    if (!l1i.touch(addr))
        l2.touch(addr);
}

void
MemoryHierarchy::reset()
{
    l1i.reset();
    l1d.reset();
    l2.reset();
    itlb.reset();
    dtlb.reset();
}

void
MemoryHierarchy::clearStats()
{
    l1i.clearStats();
    l1d.clearStats();
    l2.clearStats();
    itlb.clearStats();
    dtlb.clearStats();
    pfStats = PrefetchStats();
}


void
// yasim-lint: serialized(warm)
MemoryHierarchy::serializeWarmState(std::ostream &os) const
{
    warmio::putPod(os, kWarmStateFormatVersion);
    l1i.serializeWarmState(os);
    l1d.serializeWarmState(os);
    l2.serializeWarmState(os);
    itlb.serializeWarmState(os);
    dtlb.serializeWarmState(os);
}

bool
// yasim-lint: serialized(warm)
MemoryHierarchy::deserializeWarmState(std::istream &is)
{
    uint32_t version = 0;
    if (!warmio::getPod(is, version) || version != kWarmStateFormatVersion)
        return false;
    return l1i.deserializeWarmState(is) && l1d.deserializeWarmState(is) &&
           l2.deserializeWarmState(is) && itlb.deserializeWarmState(is) &&
           dtlb.deserializeWarmState(is);
}

} // namespace yasim
