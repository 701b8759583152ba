/**
 * @file
 * Characterization B: execution-profile comparison (paper section 4.2 /
 * 5.2).
 *
 * Compares the BBEF and BBV distributions a technique's detailed
 * portion executed against the reference run's, with a chi-squared
 * test: the test value is the distance measure, and the technique is
 * "statistically similar" when the value is below the critical value
 * for the profile's degrees of freedom. The reference run's very large
 * basic-block counts make the critical value generous — the paper's
 * observation that almost every permutation passes the similarity test
 * even though the reduced/truncated distances are clearly larger.
 */

#ifndef YASIM_CORE_PROFILE_CHARACTERIZATION_HH
#define YASIM_CORE_PROFILE_CHARACTERIZATION_HH

#include "stats/chi2.hh"
#include "techniques/technique.hh"

namespace yasim {

/** Chi-squared comparison of both profile flavours. */
struct ProfileComparison
{
    std::string technique;
    std::string permutation;
    /** Block-entry-count distribution comparison. */
    Chi2Result bbef;
    /** Instruction-weighted (BBV) distribution comparison. */
    Chi2Result bbv;
};

/**
 * Compare @p technique's execution profile to @p reference's.
 * @pre both results carry profiles of the same program shape.
 */
ProfileComparison compareProfiles(const TechniqueResult &technique,
                                  const TechniqueResult &reference,
                                  double confidence = 0.95);

} // namespace yasim

#endif // YASIM_CORE_PROFILE_CHARACTERIZATION_HH
