/**
 * @file
 * Enhancement-impact study (paper section 7, Figure 6).
 *
 * Quantifies how each technique's inaccuracy distorts the *apparent
 * speedup* of a microarchitectural enhancement: the technique simulates
 * the machine with and without the enhancement, and the resulting
 * speedup is compared to the speedup the reference run reports. Two
 * enhancements, as in the paper: Trivial Computation simplification
 * [Yi02] (processor core, non-speculative) and Next-Line Prefetching
 * [Jouppi90] (memory hierarchy, speculative).
 */

#ifndef YASIM_CORE_ENHANCEMENT_STUDY_HH
#define YASIM_CORE_ENHANCEMENT_STUDY_HH

#include "techniques/service.hh"
#include "techniques/technique.hh"

namespace yasim {

/** The two studied enhancements. */
enum class Enhancement
{
    TrivialComputation,
    NextLinePrefetch,
};

/** A copy of @p config with @p enhancement switched on. */
SimConfig withEnhancement(const SimConfig &config,
                          Enhancement enhancement);

/** Speedup-error datum for one technique permutation. */
struct EnhancementImpact
{
    std::string technique;
    std::string permutation;
    /** Speedup the technique reports: CPI(base) / CPI(enhanced). */
    double apparentSpeedup = 1.0;
    /** Speedup the reference run reports. */
    double referenceSpeedup = 1.0;

    /** Figure 6's y value: apparent minus reference speedup. */
    double speedupError() const
    {
        return apparentSpeedup - referenceSpeedup;
    }
};

/**
 * Evaluate the enhancement on @p config under every technique: each
 * technique and the reference run with and without it, in one runAll()
 * batch through @p service. One impact per technique, in order; each
 * carries the reference speedup.
 */
std::vector<EnhancementImpact>
evaluateEnhancement(SimulationService &service,
                    const std::vector<TechniquePtr> &techniques,
                    const TechniqueContext &ctx, const SimConfig &config,
                    Enhancement enhancement);

} // namespace yasim

#endif // YASIM_CORE_ENHANCEMENT_STUDY_HH
