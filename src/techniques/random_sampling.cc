#include "techniques/random_sampling.hh"

#include <algorithm>

#include "sim/bb_profiler.hh"
#include "sim/ooo_core.hh"
#include "stats/summary.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "techniques/trace_store.hh"

namespace yasim {

RandomSampling::RandomSampling(uint64_t num_samples, uint64_t unit_insts,
                               uint64_t warmup_insts, uint64_t seed)
    : numSamples(num_samples),
      unitInsts(unit_insts),
      warmupInsts(warmup_insts),
      seed(seed)
{
    YASIM_ASSERT(num_samples >= 1 && unit_insts >= 1);
}

std::string
RandomSampling::permutation() const
{
    return "N=" + std::to_string(numSamples) +
           " U=" + std::to_string(unitInsts) +
           " W=" + std::to_string(warmupInsts);
}

// yasim-lint: key(tech) covers RandomSampling(techniques/random_sampling.hh)
std::string
RandomSampling::cacheKey() const
{
    return csprintf("random|n=%llu|u=%llu|w=%llu|seed=%llu",
                    static_cast<unsigned long long>(numSamples),
                    static_cast<unsigned long long>(unitInsts),
                    static_cast<unsigned long long>(warmupInsts),
                    static_cast<unsigned long long>(seed));
}

std::vector<uint64_t>
RandomSampling::samplePositions(const TechniqueContext &ctx) const
{
    // Uniformly random, then sorted so one forward pass visits all.
    Rng rng(seed ^ ctx.suite.seed);
    uint64_t span = unitInsts + warmupInsts;
    uint64_t usable =
        ctx.referenceLength > span ? ctx.referenceLength - span : 1;
    std::vector<uint64_t> positions;
    positions.reserve(numSamples);
    for (uint64_t i = 0; i < numSamples; ++i)
        positions.push_back(warmupInsts + rng.nextBelow(usable));
    std::sort(positions.begin(), positions.end());
    return positions;
}

TechniqueResult
RandomSampling::run(const TechniqueContext &ctx,
                    const SimConfig &config) const
{
    TraceReplayer stream = openStream(ctx, InputSet::Reference);
    OooCore core(config);
    BbProfiler profiler(stream.trace()->program());

    std::vector<uint64_t> positions = samplePositions(ctx);

    std::vector<double> unit_cpis;
    SimStats measured;
    uint64_t detailed = 0, skipped = 0;

    auto cancelled = [&] {
        CancelledError err;
        err.cause = ctx.cancel.cause();
        err.detailedInsts = detailed;
        err.partialWorkUnits =
            ctx.cost.fastForwardPerInst * static_cast<double>(skipped) +
            ctx.cost.detailedPerInst * static_cast<double>(detailed);
        return err;
    };

    for (uint64_t start : positions) {
        uint64_t warm_start =
            start >= warmupInsts ? start - warmupInsts : 0;
        if (stream.instsExecuted() >= warm_start + warmupInsts)
            continue; // overlapping samples collapse into one
        // One poll per sample: a unit is far shorter than the core's
        // poll quantum.
        if (ctx.cancel.cancelled())
            throw cancelled();
        if (stream.instsExecuted() < warm_start) {
            uint64_t gap = warm_start - stream.instsExecuted();
            skipped += stream.fastForward(gap); // NO warming: stale state
        }
        core.resetPipeline();
        uint64_t warm_done = 0;
        if (warmupInsts > 0)
            warm_done = core.run(stream, warmupInsts, nullptr, ctx.cancel);
        uint64_t done = 0;
        SimStats delta = core.runMeasured(stream, unitInsts, &profiler,
                                          &done, ctx.cancel);
        // The core polls too; reading the sticky cause polls nothing.
        if (ctx.cancel.cause() != CancelCause::None) {
            detailed += warm_done + done;
            throw cancelled();
        }
        if (done == 0)
            break;
        unit_cpis.push_back(delta.cpi());
        measured += delta;
        detailed += warmupInsts + done;
    }
    YASIM_ASSERT(!unit_cpis.empty());

    TechniqueResult result;
    result.technique = name();
    result.permutation = permutation();
    result.cpi = mean(unit_cpis);
    result.metrics = measured.metricVector();
    result.detailed = measured;
    result.bbef = profiler.bbef();
    result.bbv = profiler.bbv();
    result.detailedInsts = detailed;
    result.workUnits =
        ctx.cost.fastForwardPerInst * static_cast<double>(skipped) +
        ctx.cost.detailedPerInst * static_cast<double>(detailed);
    return result;
}

} // namespace yasim
