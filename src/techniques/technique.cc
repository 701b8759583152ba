#include "techniques/technique.hh"

#include "techniques/service.hh"

namespace yasim {

std::string
Technique::cacheKey() const
{
    return name() + "|" + permutation();
}

TechniqueContext
TechniqueContext::make(const std::string &benchmark,
                       const SuiteConfig &suite,
                       SimulationService &service)
{
    TechniqueContext ctx;
    ctx.benchmark = benchmark;
    ctx.suite = suite;
    ctx.traces = service.traceStore();
    ctx.referenceLength =
        ctx.traces->get(benchmark, InputSet::Reference, suite)->length();
    return ctx;
}

} // namespace yasim
