#include "techniques/full_reference.hh"

#include "sim/sharded.hh"
#include "techniques/trace_store.hh"

namespace yasim {

TechniqueResult
runWholeProgram(const TechniqueContext &ctx, const SimConfig &config,
                InputSet input, const ShardOptions &shards)
{
    TraceReplayer src = openStream(ctx, input);
    ShardedRunResult run;
    try {
        run = runShardedReference(src.trace(), config, shards,
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

TechniqueResult
FullReference::run(const TechniqueContext &ctx,
                   const SimConfig &config) const
{
    TechniqueResult result =
        runWholeProgram(ctx, config, InputSet::Reference, ctx.shards);
    result.technique = name();
    result.permutation = permutation();
    return result;
}

} // namespace yasim
