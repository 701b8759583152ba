/**
 * @file
 * Configuration-dependence analysis (paper section 6.2, Figure 5).
 *
 * Measures how a technique's CPI error behaves across the envelope of
 * the configuration hypercube: the histogram of |CPI error| in 3%-wide
 * bins from 0% to 30% plus overflow (Figure 5's stacks), and whether
 * the signed error *trends* (is consistently positive or negative) —
 * the paper's second criterion for usable relative accuracy.
 */

#ifndef YASIM_CORE_CONFIG_DEPENDENCE_HH
#define YASIM_CORE_CONFIG_DEPENDENCE_HH

#include "stats/histogram.hh"
#include "techniques/service.hh"
#include "techniques/technique.hh"

namespace yasim {

/** Figure-5 data for one technique permutation. */
struct ConfigDependence
{
    std::string technique;
    std::string permutation;
    /** |CPI error| histogram: 10 bins of 3% plus overflow. */
    Histogram errorHistogram{0.0, 0.03, 10};
    /** Signed per-config CPI errors (technique - reference) / reference. */
    std::vector<double> signedErrors;

    /** Fraction of configs within ±3% CPI error. */
    double within3Pct() const { return errorHistogram.fraction(0); }

    /**
     * Error consistency in [0, 1]: the fraction of configurations whose
     * signed error matches the majority sign. 1.0 = the error trends
     * perfectly; ~0.5 = the error's direction is a coin flip.
     */
    double errorConsistency() const;
};

/**
 * Run every technique and the reference across a configuration set in
 * one runAll() batch through @p service, and histogram each technique's
 * CPI error against the reference CPI per configuration. One entry per
 * technique, in order.
 */
std::vector<ConfigDependence>
configDependence(SimulationService &service,
                 const std::vector<TechniquePtr> &techniques,
                 const TechniqueContext &ctx,
                 const std::vector<SimConfig> &configs);

} // namespace yasim

#endif // YASIM_CORE_CONFIG_DEPENDENCE_HH
