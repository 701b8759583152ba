/**
 * @file
 * Speed-versus-accuracy trade-off analysis (paper section 6.1,
 * Figures 3 and 4).
 *
 * For every technique permutation: speed is the technique's total work
 * (in deterministic work units, including SimPoint's profiling and
 * checkpoint generation and SMARTS's re-runs) as a percentage of the
 * reference run's work; accuracy is the Manhattan distance between the
 * technique's CPI vector and the reference's CPI vector across a set of
 * configurations.
 */

#ifndef YASIM_CORE_SVAT_ANALYSIS_HH
#define YASIM_CORE_SVAT_ANALYSIS_HH

#include <string>
#include <vector>

#include "techniques/service.hh"
#include "techniques/technique.hh"

namespace yasim {

/** One point in a Figure-3/4 style SvAT graph. */
struct SvatPoint
{
    std::string technique;
    std::string permutation;
    /** Total simulation work as % of the reference run's. */
    double speedPct = 0.0;
    /** Manhattan distance of the CPI vectors across configurations. */
    double cpiDistance = 0.0;
    /** Per-config CPI estimates (diagnostics). */
    std::vector<double> cpis;
};

/**
 * Run the SvAT analysis for one benchmark: every technique and the
 * reference run on every configuration, in one runAll() batch through
 * @p service — with an ExperimentEngine handle the batch runs on the
 * pool, and the reference runs are shared with every other analysis in
 * the process (and, given a cache directory, across processes).
 *
 * @param service     simulation service (engine or DirectService)
 * @param ctx         benchmark context
 * @param techniques  permutations to place on the graph
 * @param configs     configuration set (the paper uses ~50 envelope
 *                    configurations; Table-3's four are a cheap default)
 */
std::vector<SvatPoint>
svatAnalysis(SimulationService &service, const TechniqueContext &ctx,
             const std::vector<TechniquePtr> &techniques,
             const std::vector<SimConfig> &configs);

} // namespace yasim

#endif // YASIM_CORE_SVAT_ANALYSIS_HH
