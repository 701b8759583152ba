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

std::vector<double>
referenceCpis(SimulationService &service, const TechniqueContext &ctx,
              const std::vector<SimConfig> &configs)
{
    FullReference reference;
    std::vector<double> cpis;
    cpis.reserve(configs.size());
    for (const SimConfig &config : configs)
        cpis.push_back(service.run(reference, ctx, config).cpi);
    return cpis;
}

ConfigDependence
configDependence(SimulationService &service, const Technique &technique,
                 const TechniqueContext &ctx,
                 const std::vector<SimConfig> &configs,
                 const std::vector<double> &ref_cpis)
{
    YASIM_ASSERT(configs.size() == ref_cpis.size());
    ConfigDependence dep;
    dep.technique = technique.name();
    dep.permutation = technique.permutation();

    for (size_t i = 0; i < configs.size(); ++i) {
        TechniqueResult r = service.run(technique, ctx, configs[i]);
        YASIM_ASSERT(ref_cpis[i] > 0.0);
        double err = (r.cpi - ref_cpis[i]) / ref_cpis[i];
        dep.signedErrors.push_back(err);
        dep.errorHistogram.add(std::fabs(err));
    }
    return dep;
}

} // namespace yasim
