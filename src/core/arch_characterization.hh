/**
 * @file
 * Characterization C: architecture-level metrics (paper section 4.3 /
 * 5.2, Table 3).
 *
 * Vectorizes {IPC, branch-prediction accuracy, L1-D hit rate, L2 hit
 * rate}, normalizes each coordinate by the reference run's value so
 * metrics with different scales are comparable, and reports the
 * Euclidean distance from the reference (whose normalized vector is all
 * ones). Run across the four Table-3 configurations.
 */

#ifndef YASIM_CORE_ARCH_CHARACTERIZATION_HH
#define YASIM_CORE_ARCH_CHARACTERIZATION_HH

#include "techniques/technique.hh"

namespace yasim {

/**
 * Normalized Euclidean distance between a technique's metric vector and
 * the reference's (0 = identical).
 */
double archDistance(const TechniqueResult &technique,
                    const TechniqueResult &reference);

/**
 * Distance averaged over several configurations: element i of each
 * argument is the result on configuration i.
 */
double archDistanceOverConfigs(
    const std::vector<TechniqueResult> &technique,
    const std::vector<TechniqueResult> &reference);

} // namespace yasim

#endif // YASIM_CORE_ARCH_CHARACTERIZATION_HH
