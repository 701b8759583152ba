#include "core/arch_characterization.hh"

#include "stats/distance.hh"
#include "support/logging.hh"

namespace yasim {

double
archDistance(const TechniqueResult &technique,
             const TechniqueResult &reference)
{
    YASIM_ASSERT(technique.metrics.size() == reference.metrics.size());
    std::vector<double> normalized =
        normalizeBy(technique.metrics, reference.metrics);
    std::vector<double> ones(normalized.size(), 1.0);
    return euclideanDistance(normalized, ones);
}

double
archDistanceOverConfigs(const std::vector<TechniqueResult> &technique,
                        const std::vector<TechniqueResult> &reference)
{
    YASIM_ASSERT(!technique.empty());
    YASIM_ASSERT(technique.size() == reference.size());
    double total = 0.0;
    for (size_t i = 0; i < technique.size(); ++i)
        total += archDistance(technique[i], reference[i]);
    return total / static_cast<double>(technique.size());
}

} // namespace yasim
