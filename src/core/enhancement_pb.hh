/**
 * @file
 * PB-based enhancement-effect measurement — the third application of
 * the Plackett-Burman methodology in [Yi03], which this paper builds
 * on: add the enhancement (on/off) to the design as one more factor
 * and estimate its main effect on CPI *alongside* the 43 processor
 * parameters. The enhancement's rank among the parameters says whether
 * its benefit rises above the machine's own bottleneck structure — a
 * far stronger statement than a speedup number on one configuration.
 */

#ifndef YASIM_CORE_ENHANCEMENT_PB_HH
#define YASIM_CORE_ENHANCEMENT_PB_HH

#include "core/enhancement_study.hh"
#include "techniques/service.hh"
#include "techniques/technique.hh"

namespace yasim {

/** Outcome of ranking an enhancement among the PB factors. */
struct EnhancementPbOutcome
{
    Enhancement enhancement = Enhancement::TrivialComputation;
    /** Main effect of the enhancement on CPI (negative = speeds up). */
    double enhancementEffect = 0.0;
    /** Its rank among the 43 + 1 factors (1 = largest |effect|). */
    int enhancementRank = 0;
    /** Effects of every factor (43 processor factors + enhancement). */
    std::vector<double> effects;
    /** Ranks of every factor (same order; last = enhancement). */
    std::vector<int> ranks;
    /** Total simulation work spent. */
    double workUnits = 0.0;
};

/**
 * Run the 44-factor design (43 processor parameters + the enhancement
 * as factor 44) under @p technique, in one runAll() batch through
 * @p service, and rank the enhancement's effect.
 *
 * The design grows to the next constructible size (48 runs); the
 * response is the technique's CPI estimate per run.
 */
EnhancementPbOutcome
rankEnhancementEffect(SimulationService &service,
                      const Technique &technique,
                      const TechniqueContext &ctx,
                      Enhancement enhancement);

} // namespace yasim

#endif // YASIM_CORE_ENHANCEMENT_PB_HH
