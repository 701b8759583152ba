#include "sim/sampling.hh"

#include <algorithm>

#include "sim/bb_profiler.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/logging.hh"

namespace yasim {

SamplingPlan
SamplingPlan::make(uint64_t unit_insts, uint64_t warmup_insts,
                   uint64_t length)
{
    YASIM_ASSERT(unit_insts >= 1);
    SamplingPlan plan;
    plan.unitInsts = unit_insts;
    // A warm-up longer than the whole run would swallow it; degrade to
    // the largest warm-up that still leaves room for at least one
    // measured unit (the historical SMARTS rule).
    if (unit_insts + warmup_insts >= length) {
        warmup_insts =
            length > 2 * unit_insts ? length - 2 * unit_insts : 0;
    }
    plan.warmupInsts = warmup_insts;
    plan.length = length;
    uint64_t span = plan.span();
    plan.maxUnits = std::max<uint64_t>(span > 0 ? length / span : 0, 1);
    plan.period = std::max<uint64_t>(length / plan.maxUnits, 1);
    return plan;
}

uint64_t
SamplingPlan::strideFor(uint64_t n) const
{
    uint64_t target = std::max<uint64_t>(std::min(n, maxUnits), 1);
    uint64_t stride = 1;
    // Largest power of two whose selection still reaches the target;
    // halving the stride always yields a superset of the selection.
    // Past maxUnits the selection is {0} no matter what, so stop
    // doubling there (a target of 1 would otherwise never converge).
    while (stride < maxUnits &&
           (maxUnits + stride * 2 - 1) / (stride * 2) >= target) {
        stride *= 2;
    }
    return stride;
}

std::vector<uint64_t>
SamplingPlan::indicesFor(uint64_t n) const
{
    uint64_t stride = strideFor(n);
    std::vector<uint64_t> indices;
    indices.reserve((maxUnits + stride - 1) / stride);
    for (uint64_t j = 0; j < maxUnits; j += stride)
        indices.push_back(j);
    return indices;
}

UnitResult
measureUnit(OooCore &core, TraceReplayer &stream, const SamplingPlan &plan,
            uint64_t index, const CancelToken &cancel)
{
    UnitResult out;
    out.index = index;
    if (plan.warmupInsts > 0)
        out.warmupDone =
            core.run(stream, plan.warmupInsts, nullptr, cancel);
    BbProfiler profiler(stream.trace()->program());
    SimStats delta = core.runMeasured(stream, plan.unitInsts, &profiler,
                                      &out.unitDone, cancel);
    if (out.unitDone == 0)
        return out; // the unit lies past program end
    out.measured = true;
    out.stats = delta;
    out.bbef = profiler.bbef();
    out.bbv = profiler.bbv();
    return out;
}

bool
warmTo(TraceReplayer &cursor, uint64_t target, MemoryHierarchy &mem,
       CombinedPredictor &bp, const CancelToken &cancel, uint64_t &warmed)
{
    YASIM_CHECK_LE(cursor.instsExecuted(), target);
    do {
        if (cancel.cancelled())
            return false;
        const uint64_t step =
            std::min(target - cursor.instsExecuted(), kWarmCancelChunk);
        warmed += cursor.fastForwardWarm(step, &mem, &bp);
    } while (cursor.instsExecuted() < target && !cursor.halted());
    return true;
}

std::vector<UnitResult>
walkUnits(const std::shared_ptr<const ExecTrace> &trace,
          const SamplingPlan &plan, const SimConfig &config,
          const std::vector<uint64_t> &indices, const CancelToken &cancel)
{
    YASIM_CHECK(trace != nullptr, "the sampling walk needs a trace");
    OooCore core(config);
    TraceReplayer cursor(trace);
    uint64_t warmed = 0;
    uint64_t detailed = 0;

    auto cancelled = [&] {
        CancelledError err;
        err.cause = cancel.cause();
        err.warmedInsts = warmed;
        err.detailedInsts = detailed;
        return err;
    };

    std::vector<UnitResult> results(indices.size());
    for (size_t slot = 0; slot < indices.size(); ++slot) {
        const uint64_t index = indices[slot];
        YASIM_CHECK_LT(index, plan.maxUnits);
        if (slot > 0)
            YASIM_CHECK_GT(index, indices[slot - 1]);

        // warmTo polls at least once, so every unit polls. Units are at
        // least span() apart, so the cursor is not past the warm start.
        if (!warmTo(cursor, plan.warmStart(index), core.memHierarchy(),
                    core.predictor(), cancel, warmed))
            throw cancelled();

        // The unit's detailed run trains the tables as warming its span
        // would (see the file comment).
        core.restart();
        results[slot] = measureUnit(core, cursor, plan, index, cancel);
        detailed += results[slot].warmupDone + results[slot].unitDone;
        // The core polls on its own; a run it cut short must never
        // feed a CPI estimate. Reading the sticky cause polls nothing.
        if (cancel.cause() != CancelCause::None)
            throw cancelled();
    }
    return results;
}

} // namespace yasim
