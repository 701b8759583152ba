#include "sim/sharded.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <system_error>

#include "sim/livepoint.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace yasim {

namespace {

/**
 * Identity of one shard's warmed-uarch state: @p identity (the
 * warmIdentityDigest shared with the live-point library) plus the
 * slice's warm span.
 */
std::string
warmSummaryKey(const std::string &identity, const ShardSlice &slice)
{
    return csprintf("warm{from=%llu|at=%llu|id=%s}",
                    static_cast<unsigned long long>(slice.warmStart),
                    static_cast<unsigned long long>(slice.begin),
                    identity.c_str());
}

std::string
warmSummaryPath(const std::string &dir, const std::string &key)
{
    return dir + "/warm-" + Hasher().str(key).hex() + ".lvpt";
}

/**
 * Per-shard prepared warm state, resolved serially before the fan-out.
 * `summary` carries a warm blob only when a persisted one loaded.
 */
struct ShardPrep
{
    std::string key;
    LivePoint summary;
};

/**
 * Build a fresh core and apply @p prep's warmed-uarch summary if one
 * loaded. A summary that fails structural validation leaves the tables
 * partially mutated, so the core is rebuilt and the caller warms from
 * the stream instead. @p restored reports whether the summary took.
 */
void
makeCore(std::optional<OooCore> &core, const SimConfig &config,
         const ShardPrep &prep, bool &restored)
{
    core.emplace(config);
    const bool loaded = prep.summary.hasUarch();
    restored = loaded && prep.summary.restoreUarch(core->memHierarchy(),
                                                   core->predictor(),
                                                   prep.key);
    if (loaded && !restored)
        core.emplace(config);
}

/**
 * Serially resolve each warmed shard's summary key and try to load a
 * persisted summary for it. Runs before the parallel fan-out so the
 * workers touch the warm directory only to publish new summaries.
 */
std::vector<ShardPrep>
prepareShards(const Program &program, const std::vector<ShardSlice> &plan,
              const SimConfig &config, const ShardOptions &opts)
{
    std::vector<ShardPrep> prep(plan.size());
    if (!opts.warmDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.warmDir, ec);
    }
    const std::string identity = warmIdentityDigest(program, config);
    for (size_t k = 1; k < plan.size(); ++k) {
        prep[k].key = warmSummaryKey(identity, plan[k]);
        if (opts.warmDir.empty())
            continue;
        LivePoint loaded;
        if (LivePoint::loadFile(warmSummaryPath(opts.warmDir, prep[k].key),
                                loaded) &&
            loaded.position() == plan[k].begin &&
            loaded.uarchKey() == prep[k].key) {
            prep[k].summary = std::move(loaded);
        }
    }
    return prep;
}

/** Most multiples of the boundary spacing a run may hold. */
constexpr uint64_t kMaxShardRungs = 16;

/** Plan-based modeled cost, independent of warm-summary hits. */
void
chargePlan(const std::vector<ShardSlice> &plan, ShardedRunResult &result)
{
    for (const ShardSlice &s : plan) {
        result.detailedInsts += s.end - s.begin;
        result.warmedInsts += s.begin - s.warmStart;
    }
}

/** Instructions functionally warmed between cancellation polls. */
constexpr uint64_t kWarmCancelChunk = 1 << 20;

/**
 * Functionally warm @p n instructions from @p src in bounded chunks,
 * polling @p cancel between chunks (warming a full prefix can be the
 * longest phase of a shard). Completed chunks accumulate into
 * @p warmed_done for honest partial-cost accounting. False = cancelled
 * mid-warm.
 */
bool
warmChunked(TraceReplayer &src, uint64_t n, OooCore &core,
            const CancelToken &cancel, std::atomic<uint64_t> &warmed_done)
{
    while (n > 0) {
        if (cancel.cancelled())
            return false;
        uint64_t step = std::min(n, kWarmCancelChunk);
        src.fastForwardWarm(step, &core.memHierarchy(),
                            &core.predictor());
        warmed_done.fetch_add(step, std::memory_order_relaxed);
        n -= step;
    }
    return true;
}

/**
 * The post-fan-out cancellation gate: a cancelled sharded run throws
 * instead of stitching, carrying the raw partial progress so the
 * technique layer can convert it to work units.
 */
void
refuseStitchIfCancelled(const CancelToken &cancel,
                        const std::atomic<uint64_t> &detailed_done,
                        const std::atomic<uint64_t> &warmed_done)
{
    if (!cancel.cancelled())
        return;
    CancelledError err;
    err.cause = cancel.cause();
    err.detailedInsts = detailed_done.load(std::memory_order_relaxed);
    err.warmedInsts = warmed_done.load(std::memory_order_relaxed);
    throw err;
}

} // namespace

const char *
stitchModeName(StitchMode mode)
{
    switch (mode) {
      case StitchMode::Drain:
        return "drain";
    }
    return "unknown";
}

uint64_t
shardSpacingFor(uint64_t length)
{
    uint64_t spacing = uint64_t(64) * 1024;
    if (length == 0)
        return spacing;
    // floor((length-1)/spacing) counts the rungs: multiples of the
    // spacing strictly before the run's end.
    while ((length - 1) / spacing > kMaxShardRungs)
        spacing *= 2;
    return spacing;
}

std::vector<ShardSlice>
planShards(uint64_t length, uint32_t shards, uint64_t warmup)
{
    if (shards == 0)
        shards = 1;
    const uint64_t spacing = shardSpacingFor(length);

    // Interior boundaries at the rung nearest each ideal split; rungs
    // can collide for short runs, in which case shards merge.
    std::vector<uint64_t> bounds;
    bounds.push_back(0);
    for (uint32_t k = 1; k < shards; ++k) {
        uint64_t ideal = length * k / shards;
        uint64_t rung = (ideal + spacing / 2) / spacing * spacing;
        if (rung == 0 || rung >= length)
            continue;
        if (rung != bounds.back())
            bounds.push_back(rung);
    }
    bounds.push_back(length);

    std::vector<ShardSlice> plan;
    plan.reserve(bounds.size() - 1);
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
        ShardSlice s;
        s.begin = bounds[k];
        s.end = bounds[k + 1];
        // Shard 0 starts cold like the sequential run; later shards
        // warm their lead-in, the full prefix when unbounded.
        if (s.begin == 0 || warmup == 0 || warmup >= s.begin)
            s.warmStart = 0;
        else
            s.warmStart = s.begin - warmup;
        plan.push_back(s);
    }
    return plan;
}

ShardedRunResult
runShardedReference(const std::shared_ptr<const ExecTrace> &trace,
                    const SimConfig &config, const ShardOptions &opts,
                    const CancelToken &cancel)
{
    YASIM_CHECK(trace != nullptr, "sharded reference requires a trace");
    const std::vector<ShardSlice> plan =
        planShards(trace->length(), opts.shards, opts.warmupInsts);
    std::vector<ShardPrep> prep =
        prepareShards(trace->program(), plan, config, opts);

    ShardedRunResult result;
    result.perShard.resize(plan.size());
    chargePlan(plan, result);

    std::atomic<uint32_t> restores{0};
    std::atomic<uint32_t> saves{0};
    std::atomic<uint64_t> detailedDone{0};
    std::atomic<uint64_t> warmedDone{0};

    globalPool().parallelFor(plan.size(), [&](size_t k) {
        // Each shard replays its own cursor over the shared trace and
        // seeks it to the lead-in in O(1).
        const ShardSlice &slice = plan[k];
        TraceReplayer src(trace);

        std::optional<OooCore> coreSlot;
        bool warmed = false;
        makeCore(coreSlot, config, prep[k], warmed);
        OooCore &core = *coreSlot;
        if (warmed) {
            restores.fetch_add(1, std::memory_order_relaxed);
            // Restored lead-ins charge like executed ones so partial
            // cost never depends on warm-dir state (same rule as
            // chargePlan). Only the stream position must still advance.
            warmedDone.fetch_add(slice.begin - slice.warmStart,
                                 std::memory_order_relaxed);
            src.fastForward(slice.begin);
        } else if (slice.begin > 0) {
            src.fastForward(slice.warmStart);
            if (!warmChunked(src, slice.begin - slice.warmStart, core,
                             cancel, warmedDone))
                return; // cancelled mid-warm: publish no summary
            if (!opts.warmDir.empty()) {
                LivePoint summary = LivePoint::atPosition(slice.begin);
                summary.attachUarch(core.memHierarchy(), core.predictor(),
                                    prep[k].key);
                if (summary.saveFile(
                        warmSummaryPath(opts.warmDir, prep[k].key)))
                    saves.fetch_add(1, std::memory_order_relaxed);
            }
        }
        YASIM_DCHECK_EQ(src.instsExecuted(), slice.begin);

        if (cancel.cancelled())
            return;
        uint64_t done = 0;
        result.perShard[k] = core.runMeasured(
            src, slice.end - slice.begin, nullptr, &done, cancel);
        detailedDone.fetch_add(done, std::memory_order_relaxed);
    }, cancel);

    refuseStitchIfCancelled(cancel, detailedDone, warmedDone);

    result.stats = stitchStats(result.perShard);
    result.warmRestores = restores.load();
    result.warmSaves = saves.load();
    return result;
}

} // namespace yasim
