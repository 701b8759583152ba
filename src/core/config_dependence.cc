#include "core/config_dependence.hh"

#include <cmath>

#include "support/logging.hh"
#include "techniques/full_reference.hh"

namespace yasim {

double
ConfigDependence::errorConsistency() const
{
    if (signedErrors.empty())
        return 1.0;
    size_t positive = 0;
    for (double e : signedErrors)
        if (e >= 0.0)
            ++positive;
    size_t majority = std::max(positive, signedErrors.size() - positive);
    return static_cast<double>(majority) /
           static_cast<double>(signedErrors.size());
}

std::vector<ConfigDependence>
configDependence(SimulationService &service,
                 const std::vector<TechniquePtr> &techniques,
                 const TechniqueContext &ctx,
                 const std::vector<SimConfig> &configs)
{
    // The reference leads the grid: row 0.
    std::vector<TechniquePtr> grid = {std::make_shared<FullReference>()};
    grid.insert(grid.end(), techniques.begin(), techniques.end());
    const auto rows = runGrid(service, grid, ctx, configs);

    std::vector<ConfigDependence> deps(techniques.size());
    for (size_t t = 0; t < techniques.size(); ++t) {
        ConfigDependence &dep = deps[t];
        dep.technique = techniques[t]->name();
        dep.permutation = techniques[t]->permutation();
        for (size_t c = 0; c < configs.size(); ++c) {
            const double ref_cpi = rows[0][c].cpi;
            YASIM_ASSERT(ref_cpi > 0.0);
            double err = (rows[t + 1][c].cpi - ref_cpi) / ref_cpi;
            dep.signedErrors.push_back(err);
            dep.errorHistogram.add(std::fabs(err));
        }
    }
    return deps;
}

} // namespace yasim
