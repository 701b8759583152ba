#include "techniques/truncated.hh"

#include "sim/bb_profiler.hh"
#include "sim/ooo_core.hh"
#include "support/logging.hh"
#include "techniques/trace_store.hh"

namespace yasim {

namespace {

std::string
mLabel(double m)
{
    char buf[32];
    if (m == static_cast<double>(static_cast<long long>(m)))
        std::snprintf(buf, sizeof(buf), "%lldM", static_cast<long long>(m));
    else
        std::snprintf(buf, sizeof(buf), "%.1fM", m);
    return buf;
}

} // namespace

std::string
RunZ::permutation() const
{
    return "Z=" + mLabel(runM);
}

std::string
FfRunZ::permutation() const
{
    return "X=" + mLabel(ffM) + " Z=" + mLabel(runM);
}

std::string
FfWuRunZ::permutation() const
{
    return "X=" + mLabel(ffM) + " Y=" + mLabel(warmM) +
           " Z=" + mLabel(runM);
}

TechniqueResult
TruncatedExecution::run(const TechniqueContext &ctx,
                        const SimConfig &config) const
{
    TraceReplayer src = openStream(ctx, InputSet::Reference);
    OooCore core(config);
    BbProfiler profiler(src.trace()->program());

    const uint64_t ff_insts = ffM > 0 ? ctx.scaledM(ffM) : 0;
    const uint64_t warm_insts = warmM > 0 ? ctx.scaledM(warmM) : 0;
    const uint64_t run_insts = ctx.scaledM(runM);

    // The fast-forward prefix is an O(1) seek on the replayed trace.
    // The modeled cost below still charges the architectural jump plus
    // a checkpoint of the state it reaches — the cost the paper's
    // technique pays, independent of how the simulator gets there.
    const uint64_t ff_done = src.fastForward(ff_insts);

    // The cost model, over whatever part of the window has run.
    uint64_t warm_done = 0;
    uint64_t run_done = 0;
    auto work_units = [&] {
        return ctx.cost.fastForwardPerInst * static_cast<double>(ff_done) +
               ctx.cost.detailedPerInst * static_cast<double>(warm_done) +
               ctx.cost.detailedPerInst * static_cast<double>(run_done) +
               ctx.cost.checkpointPerInst * static_cast<double>(ff_done);
    };
    // The core polls ctx.cancel; reading the sticky cause polls nothing.
    auto throw_if_cancelled = [&] {
        if (ctx.cancel.cause() == CancelCause::None)
            return;
        CancelledError err;
        err.cause = ctx.cancel.cause();
        err.detailedInsts = warm_done + run_done;
        err.partialWorkUnits = work_units();
        throw err;
    };

    // Warm-up: detailed simulation whose statistics are discarded.
    if (warm_insts > 0)
        warm_done = core.run(src, warm_insts, nullptr, ctx.cancel);
    throw_if_cancelled();

    SimStats measured = core.runMeasured(src, run_insts, &profiler,
                                         &run_done, ctx.cancel);
    throw_if_cancelled();

    if (run_done == 0) {
        warn("%s/%s: window beyond program end (ff %llu of %llu)",
             name().c_str(), permutation().c_str(),
             static_cast<unsigned long long>(ff_done),
             static_cast<unsigned long long>(ff_insts));
    }

    TechniqueResult result;
    result.technique = name();
    result.permutation = permutation();
    result.detailed = measured;
    result.cpi = measured.cpi();
    result.metrics = measured.metricVector();
    result.bbef = profiler.bbef();
    result.bbv = profiler.bbv();
    result.detailedInsts = run_done;
    result.workUnits = work_units();
    return result;
}

} // namespace yasim
