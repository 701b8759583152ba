#include "techniques/full_reference.hh"

#include "sim/ooo_core.hh"
#include "sim/sharded.hh"
#include "techniques/trace_store.hh"

namespace yasim {

namespace {

/**
 * The sharded reference path (sim/sharded.hh). Statistics are stitched
 * from per-shard measured regions; the modeled cost charges every
 * instruction at the detailed rate plus the planned functional-warming
 * lead-ins, so sharded results report *more* work than sequential ones
 * — parallelism buys wall-clock, never work units.
 */
TechniqueResult
runSharded(const TechniqueContext &ctx, const SimConfig &config)
{
    TraceReplayer src = openStream(ctx, InputSet::Reference);
    ShardedRunResult run;
    try {
        run = runShardedReference(src.trace(), config, ctx.shards,
                                  ctx.cancel);
    } catch (CancelledError &cancelled) {
        // Convert raw partial progress to work units here, where the
        // cost model lives, so the engine can charge honestly.
        cancelled.partialWorkUnits =
            ctx.cost.detailedPerInst *
                static_cast<double>(cancelled.detailedInsts) +
            ctx.cost.functionalWarmPerInst *
                static_cast<double>(cancelled.warmedInsts);
        throw;
    }

    TechniqueResult result;
    result.detailed = run.stats;
    result.bbef = src.trace()->bbef();
    result.bbv = src.trace()->bbv();
    result.cpi = result.detailed.cpi();
    result.metrics = result.detailed.metricVector();
    result.detailedInsts = run.detailedInsts;
    result.workUnits =
        ctx.cost.detailedPerInst * static_cast<double>(run.detailedInsts) +
        ctx.cost.functionalWarmPerInst *
            static_cast<double>(run.warmedInsts);
    return result;
}

} // namespace

TechniqueResult
FullReference::run(const TechniqueContext &ctx,
                   const SimConfig &config) const
{
    if (ctx.shards.enabled()) {
        TechniqueResult result = runSharded(ctx, config);
        result.technique = name();
        result.permutation = permutation();
        return result;
    }

    TraceReplayer src = openStream(ctx, InputSet::Reference);
    OooCore core(config);

    // Bail out of a cancelled sequential run at the core's next
    // batch-boundary poll, charging the instructions actually
    // detail-simulated.
    auto throwIfCancelled = [&ctx, &core] {
        if (!ctx.cancel.cancelled())
            return;
        CancelledError err;
        err.cause = ctx.cancel.cause();
        err.detailedInsts = core.instsRetired();
        err.partialWorkUnits =
            ctx.cost.detailedPerInst *
            static_cast<double>(err.detailedInsts);
        throw err;
    };

    // The trace already carries the full-run profile (recorded with
    // weight 1.0, exactly what a full detailed pass accumulates), so
    // detailed simulation needs no profiler attached.
    core.run(src, ~0ULL, nullptr, ctx.cancel);
    throwIfCancelled();

    TechniqueResult result;
    result.bbef = src.trace()->bbef();
    result.bbv = src.trace()->bbv();
    result.technique = name();
    result.permutation = permutation();
    result.detailed = core.snapshot();
    result.cpi = result.detailed.cpi();
    result.metrics = result.detailed.metricVector();
    result.detailedInsts = result.detailed.instructions;
    result.workUnits = ctx.cost.detailedPerInst *
                       static_cast<double>(result.detailedInsts);
    return result;
}

} // namespace yasim
