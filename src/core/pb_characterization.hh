/**
 * @file
 * Characterization A: processor-bottleneck analysis via a
 * Plackett-Burman design (paper section 4.1 / 5.1, Figures 1 and 2).
 *
 * The simulator runs once per PB design row, with each of the 43
 * parameters at the low or high level the row dictates; the response is
 * the technique's CPI estimate (cycles normalized by the fixed reference
 * instruction count). The magnitude of each factor's main effect ranks
 * the performance bottlenecks (rank 1 = largest); the similarity of a
 * technique to the reference run is the Euclidean distance between their
 * rank vectors, normalized to the maximum possible distance and scaled
 * to 100 — Figure 1's y axis.
 */

#ifndef YASIM_CORE_PB_CHARACTERIZATION_HH
#define YASIM_CORE_PB_CHARACTERIZATION_HH

#include <string>
#include <vector>

#include "stats/plackett_burman.hh"
#include "techniques/service.hh"
#include "techniques/technique.hh"

namespace yasim {

/** Full PB outcome for one technique on one benchmark. */
struct PbOutcome
{
    std::string technique;
    std::string permutation;
    /** CPI response per design run. */
    std::vector<double> responses;
    /** Main effect per factor (canonical pbFactors() order). */
    std::vector<double> effects;
    /** Bottleneck rank per factor (1 = largest effect). */
    std::vector<int> ranks;
    /** Total work units spent across the design's runs. */
    double workUnits = 0.0;
};

/**
 * Run the full PB design for every technique in one runAll() batch
 * through @p service; one outcome per technique, in order. With an
 * ExperimentEngine handle the batch runs on the pool, and the per-row
 * simulations are shared across techniques, analyses, and (with a
 * cache directory) processes.
 */
std::vector<PbOutcome>
runPbDesign(SimulationService &service,
            const std::vector<TechniquePtr> &techniques,
            const TechniqueContext &ctx, const PbDesign &design);

/** The design's corner configurations in run order. */
std::vector<SimConfig> pbDesignConfigs(const PbDesign &design);

/**
 * Figure-1 distance: normalized (0..100) Euclidean distance between a
 * technique's rank vector and the reference's.
 */
double pbDistance(const PbOutcome &technique, const PbOutcome &reference);

/**
 * Figure-2 series: distance difference when only the N most significant
 * reference parameters are counted, for N = 1..43. Element N-1 holds
 * dist(a, ref | top-N) - dist(b, ref | top-N).
 */
std::vector<double> pbDistanceDifference(const PbOutcome &a,
                                         const PbOutcome &b,
                                         const PbOutcome &reference);

} // namespace yasim

#endif // YASIM_CORE_PB_CHARACTERIZATION_HH
