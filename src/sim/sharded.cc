#include "sim/sharded.hh"

#include <atomic>

#include "sim/ooo_core.hh"
#include "sim/sampling.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/thread_pool.hh"

namespace yasim {

namespace {

/** Most multiples of the boundary spacing a run may hold. */
constexpr uint64_t kMaxShardRungs = 16;

/** Modeled cost: every slice's measured region and planned lead-in. */
void
chargePlan(const std::vector<ShardSlice> &plan, ShardedRunResult &result)
{
    for (const ShardSlice &s : plan) {
        result.detailedInsts += s.end - s.begin;
        result.warmedInsts += s.begin - s.warmStart;
    }
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

    ShardedRunResult result;
    result.perShard.resize(plan.size());
    chargePlan(plan, result);

    std::atomic<uint64_t> detailedDone{0};
    std::atomic<uint64_t> warmedDone{0};

    globalPool().parallelFor(plan.size(), [&](size_t k) {
        // Each shard replays its own cursor over the shared trace,
        // seeks it to the lead-in in O(1) and warms its own core there.
        const ShardSlice &slice = plan[k];
        TraceReplayer src(trace);
        OooCore core(config);
        if (slice.begin > 0) {
            src.fastForward(slice.warmStart);
            uint64_t warmed = 0;
            const bool complete =
                warmTo(src, slice.begin, core.memHierarchy(),
                       core.predictor(), cancel, warmed);
            warmedDone.fetch_add(warmed, std::memory_order_relaxed);
            if (!complete)
                return;
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
    return result;
}

} // namespace yasim
