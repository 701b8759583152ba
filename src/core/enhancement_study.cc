#include "core/enhancement_study.hh"

#include "support/logging.hh"
#include "techniques/full_reference.hh"

namespace yasim {

const char *
enhancementName(Enhancement enhancement)
{
    switch (enhancement) {
      case Enhancement::TrivialComputation:
        return "trivial computation (TC)";
      case Enhancement::NextLinePrefetch:
        return "next-line prefetching (NLP)";
    }
    return "?";
}

SimConfig
withEnhancement(const SimConfig &config, Enhancement enhancement)
{
    SimConfig enhanced = config;
    switch (enhancement) {
      case Enhancement::TrivialComputation:
        enhanced.core.trivialComputation = true;
        enhanced.name = config.name + "+tc";
        break;
      case Enhancement::NextLinePrefetch:
        enhanced.mem.nextLinePrefetch = true;
        enhanced.name = config.name + "+nlp";
        break;
    }
    return enhanced;
}

double
referenceSpeedup(SimulationService &service, const TechniqueContext &ctx,
                 const SimConfig &config, Enhancement enhancement)
{
    FullReference reference;
    double base = service.run(reference, ctx, config).cpi;
    double enhanced =
        service.run(reference, ctx, withEnhancement(config, enhancement))
            .cpi;
    YASIM_ASSERT(enhanced > 0.0);
    return base / enhanced;
}

EnhancementImpact
evaluateEnhancement(SimulationService &service, const Technique &technique,
                    const TechniqueContext &ctx, const SimConfig &config,
                    Enhancement enhancement, double reference_speedup)
{
    EnhancementImpact impact;
    impact.technique = technique.name();
    impact.permutation = technique.permutation();
    impact.referenceSpeedup = reference_speedup;

    double base = service.run(technique, ctx, config).cpi;
    double enhanced =
        service.run(technique, ctx, withEnhancement(config, enhancement))
            .cpi;
    YASIM_ASSERT(enhanced > 0.0);
    impact.apparentSpeedup = base / enhanced;
    return impact;
}

} // namespace yasim
