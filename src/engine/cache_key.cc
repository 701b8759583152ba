#include "engine/cache_key.hh"

#include <charconv>
#include <concepts>
#include <string_view>

#include "techniques/full_reference.hh"

namespace yasim {

namespace {

/**
 * Appends a key's segments to one string. Numbers come out in the
 * bytes printf wrote before: integers as "%u", "%llu" and "%d", doubles
 * as "%.17g" in the C locale (std::to_chars defines its general format
 * with a precision as exactly that), bools as 0 and 1. Every file in a
 * cache directory is named by the digest of these bytes, so they must
 * never move.
 */
class KeyText
{
  public:
    KeyText() { text.reserve(kTypicalBytes); }

    KeyText &
    operator<<(std::string_view s)
    {
        text.append(s);
        return *this;
    }

    /** Without it, a string literal would convert to bool. */
    KeyText &
    operator<<(const char *s)
    {
        return *this << std::string_view(s);
    }

    KeyText &
    operator<<(char c)
    {
        text.push_back(c);
        return *this;
    }

    KeyText &
    operator<<(bool b)
    {
        return *this << (b ? '1' : '0');
    }

    template <std::integral T>
    KeyText &
    operator<<(T v)
    {
        return append(std::to_chars(buf, buf + sizeof(buf), v));
    }

    KeyText &
    operator<<(double v)
    {
        return append(std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 17));
    }

    std::string str() && { return std::move(text); }

  private:
    /** A full result key runs to about 400 bytes. */
    static constexpr size_t kTypicalBytes = 512;

    KeyText &
    append(std::to_chars_result rendered)
    {
        text.append(buf, rendered.ptr);
        return *this;
    }

    std::string text;
    /** Fits any 64-bit integer and any "%.17g" double. */
    char buf[32] = {};
};

// yasim-lint: key(result) covers CacheConfig(uarch/cache.hh)
void
appendCache(KeyText &key, const CacheConfig &cache)
{
    key << cache.sizeKb << '/' << cache.assoc << '/' << cache.blockBytes
        << '/' << static_cast<int>(cache.replacement);
}

// yasim-lint: key(result) covers CoreConfig(sim/config.hh)
void
appendCore(KeyText &key, const CoreConfig &core)
{
    key << "fw=" << core.fetchWidth << ",dw=" << core.decodeWidth
        << ",iw=" << core.issueWidth << ",cw=" << core.commitWidth
        << ",fq=" << core.fetchQueueEntries << ",rob=" << core.robEntries
        << ",lsq=" << core.lsqEntries << ",iq=" << core.iqEntries
        << ",ialu=" << core.intAlus << ",imd=" << core.intMultDivUnits
        << ",falu=" << core.fpAlus << ",fmd=" << core.fpMultDivUnits
        << ",mp=" << core.memPorts << ",lat=" << core.intAluLatency << '/'
        << core.intMulLatency << '/' << core.intDivLatency << '/'
        << core.fpAluLatency << '/' << core.fpMulLatency << '/'
        << core.fpDivLatency << ",divp=" << core.divPipelined
        << ",fe=" << core.frontendDepth << ",mpen="
        << core.mispredictPenalty << ",triv=" << core.trivialComputation;
}

// yasim-lint: key(result) covers BranchPredictorConfig(uarch/branch_predictor.hh)
void
appendBp(KeyText &key, const BranchPredictorConfig &bp)
{
    key << "kind=" << static_cast<int>(bp.kind) << ",bht=" << bp.bhtEntries
        << ",gh=" << bp.globalHistoryBits << ",btb=" << bp.btbEntries << '/'
        << bp.btbAssoc << ",spec=" << bp.speculativeUpdate;
}

// yasim-lint: key(result) covers MemoryConfig(uarch/memory_hierarchy.hh)
void
appendMem(KeyText &key, const MemoryConfig &mem)
{
    key << "l1i=";
    appendCache(key, mem.l1i);
    key << ",l1d=";
    appendCache(key, mem.l1d);
    key << ",l2=";
    appendCache(key, mem.l2);
    key << ",lat=" << mem.l1iLatency << '/' << mem.l1dLatency << '/'
        << mem.l2Latency << ",mem=" << mem.memLatencyFirst << '+'
        << mem.memLatencyNext << '*' << mem.memBusBytes
        << ",itlb=" << mem.itlbEntries << ",dtlb=" << mem.dtlbEntries
        << ",tlbmiss=" << mem.tlbMissLatency
        << ",pf=" << mem.nextLinePrefetch;
}

// yasim-lint: key(result) covers CostModel(techniques/technique.hh)
void
appendCost(KeyText &key, const CostModel &cost)
{
    key << cost.detailedPerInst << '/' << cost.functionalWarmPerInst << '/'
        << cost.fastForwardPerInst << '/' << cost.profilePerInst << '/'
        << cost.checkpointPerInst;
}

/**
 * Sharding segment of the full reference's key, when sharding is on:
 * the shard plan changes the stitched statistics and the modeled cost,
 * so every knob that shapes the plan participates. "stitch=drain"
 * names the one stitching discipline (every shard starts on a drained
 * pipeline), kept literally so existing keys do not move.
 */
// yasim-lint: key(result) covers ShardOptions(sim/sharded.hh)
void
appendShards(KeyText &key, const ShardOptions &shards)
{
    key << "shards{n=" << shards.shards << ",warm=" << shards.warmupInsts
        << ",stitch=drain}";
}

// yasim-lint: key(result) covers SuiteConfig(workloads/suite.hh)
void
appendSuite(KeyText &key, const SuiteConfig &suite)
{
    key << "ref=" << suite.referenceInstructions << ",seed=" << suite.seed;
}

// yasim-lint: key(result) covers SimConfig(sim/config.hh)
void
appendConfig(KeyText &key, const SimConfig &config)
{
    key << "core{";
    appendCore(key, config.core);
    key << "},bp{";
    appendBp(key, config.bp);
    key << "},mem{";
    appendMem(key, config.mem);
    key << '}';
}

} // namespace

std::string
suiteKeyText(const SuiteConfig &suite)
{
    KeyText key;
    appendSuite(key, suite);
    return std::move(key).str();
}

std::string
configKeyText(const SimConfig &config)
{
    KeyText key;
    appendConfig(key, config);
    return std::move(key).str();
}

std::string
resultCacheKey(const Technique &technique, const TechniqueContext &ctx,
               const SimConfig &config)
{
    static const std::string reference_key = FullReference().cacheKey();
    const std::string tech = technique.cacheKey();
    KeyText key;
    key << 'v' << kCacheFormatVersion << "|bench=" << ctx.benchmark << '|';
    appendSuite(key, ctx.suite);
    key << "|cost=";
    appendCost(key, ctx.cost);
    // Compared by key, not by type: a wrapper that forwards cacheKey()
    // runs the same reference.
    if (ctx.shards.enabled() && tech == reference_key) {
        key << '|';
        appendShards(key, ctx.shards);
    }
    key << "|tech=" << tech << "|cfg=";
    appendConfig(key, config);
    return std::move(key).str();
}

} // namespace yasim
