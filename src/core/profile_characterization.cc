#include "core/profile_characterization.hh"

#include "support/logging.hh"

namespace yasim {

ProfileComparison
compareProfiles(const TechniqueResult &technique,
                const TechniqueResult &reference, double confidence)
{
    YASIM_ASSERT(technique.bbv.size() == reference.bbv.size());
    ProfileComparison cmp;
    cmp.technique = technique.technique;
    cmp.permutation = technique.permutation;
    // Similarity verdicts use an effective sampling mass of 50 counts
    // per cell (the usual chi-squared validity scale); the statistic on
    // that normalized scale still orders techniques by profile
    // distance, mirroring the paper's dual use of the test value.
    double mass = 50.0 * static_cast<double>(reference.bbv.size());
    cmp.bbef = chiSquaredCompare(technique.bbef, reference.bbef,
                                 confidence, mass);
    cmp.bbv = chiSquaredCompare(technique.bbv, reference.bbv, confidence,
                                mass);
    return cmp;
}

} // namespace yasim
