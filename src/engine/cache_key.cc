#include "engine/cache_key.hh"

#include "support/logging.hh"
#include "techniques/full_reference.hh"

namespace yasim {

namespace {

// yasim-lint: key(result) covers CacheConfig(uarch/cache.hh)
std::string
cacheKeyText(const CacheConfig &cache)
{
    return csprintf("%u/%u/%u/%d", cache.sizeKb, cache.assoc,
                    cache.blockBytes,
                    static_cast<int>(cache.replacement));
}

// yasim-lint: key(result) covers CoreConfig(sim/config.hh)
std::string
coreKeyText(const CoreConfig &core)
{
    return csprintf(
        "fw=%u,dw=%u,iw=%u,cw=%u,fq=%u,rob=%u,lsq=%u,iq=%u,"
        "ialu=%u,imd=%u,falu=%u,fmd=%u,mp=%u,"
        "lat=%u/%u/%u/%u/%u/%u,divp=%d,fe=%u,mpen=%u,triv=%d",
        core.fetchWidth, core.decodeWidth, core.issueWidth,
        core.commitWidth, core.fetchQueueEntries, core.robEntries,
        core.lsqEntries, core.iqEntries, core.intAlus,
        core.intMultDivUnits, core.fpAlus, core.fpMultDivUnits,
        core.memPorts, core.intAluLatency, core.intMulLatency,
        core.intDivLatency, core.fpAluLatency, core.fpMulLatency,
        core.fpDivLatency, core.divPipelined ? 1 : 0,
        core.frontendDepth, core.mispredictPenalty,
        core.trivialComputation ? 1 : 0);
}

// yasim-lint: key(result) covers BranchPredictorConfig(uarch/branch_predictor.hh)
std::string
bpKeyText(const BranchPredictorConfig &bp)
{
    return csprintf("kind=%d,bht=%u,gh=%u,btb=%u/%u,spec=%d",
                    static_cast<int>(bp.kind), bp.bhtEntries,
                    bp.globalHistoryBits, bp.btbEntries, bp.btbAssoc,
                    bp.speculativeUpdate ? 1 : 0);
}

// yasim-lint: key(result) covers MemoryConfig(uarch/memory_hierarchy.hh)
std::string
memKeyText(const MemoryConfig &mem)
{
    return csprintf(
        "l1i=%s,l1d=%s,l2=%s,lat=%u/%u/%u,mem=%u+%u*%u,"
        "itlb=%u,dtlb=%u,tlbmiss=%u,pf=%d",
        cacheKeyText(mem.l1i).c_str(), cacheKeyText(mem.l1d).c_str(),
        cacheKeyText(mem.l2).c_str(), mem.l1iLatency, mem.l1dLatency,
        mem.l2Latency, mem.memLatencyFirst, mem.memLatencyNext,
        mem.memBusBytes, mem.itlbEntries, mem.dtlbEntries,
        mem.tlbMissLatency, mem.nextLinePrefetch ? 1 : 0);
}

// yasim-lint: key(result) covers CostModel(techniques/technique.hh)
std::string
costKeyText(const CostModel &cost)
{
    return csprintf("%.17g/%.17g/%.17g/%.17g/%.17g",
                    cost.detailedPerInst, cost.functionalWarmPerInst,
                    cost.fastForwardPerInst, cost.profilePerInst,
                    cost.checkpointPerInst);
}

/**
 * Sharding segment of the full reference's key, when sharding is on:
 * the shard plan changes the stitched statistics and the modeled cost,
 * so every knob that shapes the plan participates. "stitch=drain"
 * names the one stitching discipline (every shard starts on a drained
 * pipeline), kept literally so existing keys do not move.
 */
// yasim-lint: key(result) covers ShardOptions(sim/sharded.hh)
std::string
shardKeyText(const ShardOptions &shards)
{
    return csprintf("shards{n=%u,warm=%llu,stitch=drain}", shards.shards,
                    static_cast<unsigned long long>(shards.warmupInsts));
}

} // namespace

// yasim-lint: key(result) covers SuiteConfig(workloads/suite.hh)
std::string
suiteKeyText(const SuiteConfig &suite)
{
    return csprintf("ref=%llu,seed=%llu",
                    static_cast<unsigned long long>(
                        suite.referenceInstructions),
                    static_cast<unsigned long long>(suite.seed));
}

// yasim-lint: key(result) covers SimConfig(sim/config.hh)
std::string
configKeyText(const SimConfig &config)
{
    return "core{" + coreKeyText(config.core) + "},bp{" +
           bpKeyText(config.bp) + "},mem{" + memKeyText(config.mem) +
           "}";
}

std::string
resultCacheKey(const Technique &technique, const TechniqueContext &ctx,
               const SimConfig &config)
{
    static const std::string reference_key = FullReference().cacheKey();
    const std::string tech = technique.cacheKey();
    std::string key = csprintf("v%d", kCacheFormatVersion) + "|bench=" +
                      ctx.benchmark + "|" + suiteKeyText(ctx.suite) +
                      "|cost=" + costKeyText(ctx.cost);
    // Compared by key, not by type: a wrapper that forwards cacheKey()
    // runs the same reference.
    if (ctx.shards.enabled() && tech == reference_key)
        key += "|" + shardKeyText(ctx.shards);
    return key + "|tech=" + tech + "|cfg=" + configKeyText(config);
}

} // namespace yasim
