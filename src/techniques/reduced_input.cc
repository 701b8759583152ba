#include "techniques/reduced_input.hh"

#include "support/logging.hh"
#include "techniques/full_reference.hh"

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
    // ctx.shards applies to the reference only: a reduced input always
    // runs as one slice.
    TechniqueResult result =
        runWholeProgram(ctx, config, inputSet, ShardOptions());
    result.technique = name();
    result.permutation = permutation();
    return result;
}

} // namespace yasim
