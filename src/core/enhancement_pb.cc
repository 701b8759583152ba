#include "core/enhancement_pb.hh"

#include "stats/distance.hh"
#include "stats/plackett_burman.hh"

namespace yasim {

EnhancementPbOutcome
rankEnhancementEffect(SimulationService &service,
                      const Technique &technique,
                      const TechniqueContext &ctx,
                      Enhancement enhancement)
{
    const size_t base_factors = numPbFactors();
    const size_t all_factors = base_factors + 1;
    // Folded design: an enhancement's main effect is subtle next to the
    // machine factors, so un-aliasing it from two-factor interactions
    // matters here (unlike the rank-vector characterization, where the
    // same aliasing hits the technique and the reference alike).
    PbDesign design = PbDesign::forFactors(all_factors,
                                           /*foldover=*/true);

    EnhancementPbOutcome outcome;
    outcome.enhancement = enhancement;

    std::vector<SimConfig> configs;
    configs.reserve(design.numRuns());
    for (size_t run = 0; run < design.numRuns(); ++run) {
        std::vector<int> levels(design.numFactors());
        for (size_t j = 0; j < design.numFactors(); ++j)
            levels[j] = design.level(run, j);
        SimConfig config =
            applyPbRow(levels, "epb-run" + std::to_string(run));
        // Factor 44: the enhancement at its high level.
        if (levels[base_factors] > 0)
            config = withEnhancement(config, enhancement);
        configs.push_back(std::move(config));
    }
    std::vector<GridJob> jobs;
    for (const SimConfig &config : configs)
        jobs.push_back({&technique, &ctx, &config});

    std::vector<double> responses;
    responses.reserve(configs.size());
    for (const TechniqueResult &result : service.runAll(jobs)) {
        responses.push_back(result.cpi);
        outcome.workUnits += result.workUnits;
    }

    std::vector<double> all_effects = design.computeEffects(responses);
    outcome.effects.assign(all_effects.begin(),
                           all_effects.begin() +
                               static_cast<long>(all_factors));
    outcome.ranks = rankByMagnitude(outcome.effects);
    outcome.enhancementEffect = outcome.effects[base_factors];
    outcome.enhancementRank = outcome.ranks[base_factors];
    return outcome;
}

} // namespace yasim
