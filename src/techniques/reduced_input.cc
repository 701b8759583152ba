#include "techniques/reduced_input.hh"

#include "sim/ooo_core.hh"
#include "support/logging.hh"
#include "techniques/trace_store.hh"

namespace yasim {

ReducedInput::ReducedInput(InputSet input) : inputSet(input)
{
    YASIM_ASSERT(input != InputSet::Reference);
}

std::string
ReducedInput::permutation() const
{
    return inputSetName(inputSet);
}

TechniqueResult
ReducedInput::run(const TechniqueContext &ctx,
                  const SimConfig &config) const
{
    TraceReplayer src = openStream(ctx, inputSet);
    OooCore core(config);

    // The trace carries the full-run profile a detailed pass would
    // accumulate, so the core runs without a profiler.
    core.run(src, ~0ULL);

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
