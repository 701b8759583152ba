#include "engine/cache_key.hh"

#include "support/check.hh"
#include "support/hash.hh"
#include "support/logging.hh"

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
 * Sharding segment of the result key. Empty when sharding is off, so
 * unsharded results keep their historical keys (and caches); when on,
 * the shard plan changes the stitched statistics and the modeled cost,
 * so every knob that shapes the plan participates. "stitch=drain"
 * names the one stitching discipline (every shard starts on a drained
 * pipeline), kept literally so existing keys do not move.
 */
// yasim-lint: key(result) covers ShardOptions(sim/sharded.hh)
std::string
shardKeyText(const ShardOptions &shards)
{
    if (!shards.enabled())
        return "";
    return csprintf("shards{n=%u,warm=%llu,stitch=drain}", shards.shards,
                    static_cast<unsigned long long>(shards.warmupInsts));
}

} // namespace

CacheKeyStamper::CacheKeyStamper(std::string head,
                                 std::vector<Segment> layout)
    : text(std::move(head)), layout(std::move(layout)),
      slotStamped(this->layout.size(), false)
{
}

CacheKeyStamper &
CacheKeyStamper::stamp(std::string_view name, std::string_view value)
{
    std::string name_text(name);
    size_t slot = layout.size();
    for (size_t i = 0; i < layout.size(); ++i) {
        if (name == layout[i].name) {
            slot = i;
            break;
        }
    }
    YASIM_CHECK(slot < layout.size(),
                "unknown cache-key segment '%s'", name_text.c_str());
    YASIM_CHECK(!slotStamped[slot],
                "duplicate cache-key segment '%s'", name_text.c_str());
    YASIM_CHECK(slot >= nextSlot,
                "cache-key segment '%s' stamped out of canonical order",
                name_text.c_str());
    for (size_t i = nextSlot; i < slot; ++i) {
        YASIM_CHECK(layout[i].optional,
                    "required cache-key segment '%s' skipped before '%s'",
                    layout[i].name, name_text.c_str());
    }
    YASIM_CHECK(!value.empty(), "empty cache-key segment '%s'",
                name_text.c_str());
    YASIM_CHECK(value.find('\n') == std::string_view::npos,
                "cache-key segment '%s' contains a newline",
                name_text.c_str());
    text += '|';
    text += layout[slot].prefix;
    text += value;
    slotStamped[slot] = true;
    nextSlot = slot + 1;
    return *this;
}

std::string
CacheKeyStamper::finish()
{
    for (size_t i = nextSlot; i < layout.size(); ++i) {
        YASIM_CHECK(layout[i].optional,
                    "cache key finished without required segment '%s'",
                    layout[i].name);
    }
    nextSlot = layout.size();
    return text;
}

CacheKeyStamper
resultKeyStamper()
{
    return CacheKeyStamper(csprintf("v%d", kCacheFormatVersion),
                           {{"bench", "bench="},
                            {"suite", ""},
                            {"cost", "cost="},
                            {"shards", "", true},
                            {"tech", "tech="},
                            {"cfg", "cfg="}});
}

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
    CacheKeyStamper stamper = resultKeyStamper();
    stamper.stamp("bench", ctx.benchmark)
        .stamp("suite", suiteKeyText(ctx.suite))
        .stamp("cost", costKeyText(ctx.cost));
    if (ctx.shards.enabled())
        stamper.stamp("shards", shardKeyText(ctx.shards));
    stamper.stamp("tech", technique.cacheKey())
        .stamp("cfg", configKeyText(config));
    return stamper.finish();
}

std::string
cacheDigest(const std::string &key_text)
{
    Hasher h;
    h.str(key_text);
    return h.hex();
}

} // namespace yasim
