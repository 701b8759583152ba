#include "core/enhancement_study.hh"

#include "support/logging.hh"
#include "techniques/full_reference.hh"

namespace yasim {

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

std::vector<EnhancementImpact>
evaluateEnhancement(SimulationService &service,
                    const std::vector<TechniquePtr> &techniques,
                    const TechniqueContext &ctx, const SimConfig &config,
                    Enhancement enhancement)
{
    // The reference leads the grid; each row is (base, enhanced).
    std::vector<TechniquePtr> grid = {std::make_shared<FullReference>()};
    grid.insert(grid.end(), techniques.begin(), techniques.end());
    const auto rows = runGrid(service, grid, ctx,
                              {config, withEnhancement(config, enhancement)});
    auto speedup = [&](size_t row) {
        YASIM_ASSERT(rows[row][1].cpi > 0.0);
        return rows[row][0].cpi / rows[row][1].cpi;
    };

    std::vector<EnhancementImpact> impacts(techniques.size());
    for (size_t t = 0; t < techniques.size(); ++t) {
        impacts[t].technique = techniques[t]->name();
        impacts[t].permutation = techniques[t]->permutation();
        impacts[t].referenceSpeedup = speedup(0);
        impacts[t].apparentSpeedup = speedup(t + 1);
    }
    return impacts;
}

} // namespace yasim
